"""The bundled example models.

Each model exercises one regime of the reduction:

* ``spawn_reap``  - a leader forever spawns short-lived workers under a
  capacity bound: infinitely many concrete markings, finitely many
  stripped classes.
* ``fanout_n``    - the leader starts n single-use delegates; each
  delegate begets one worker and dies, leaving the workers mutually
  unrelated.  Interleavings explode concretely but collapse under the
  stripped keys.  The parameter n is a build-time integer: fanout_text
  generates the model text, and the bundled name stands for n=3.
* ``clean_join``  - children wait for their own grandchild before dying,
  so every reachable marking is clean and the stripped quotient is
  exact.
* ``ring``        - workers hand a token along the immediate-sibling
  chain; fully deterministic, so no mode can merge anything.
"""

from __future__ import annotations

from importlib import resources

from ..net import TNet
from ..parser import parse_model

__all__ = ["MODEL_NAMES", "model_text", "load_model", "fanout_text"]

MODEL_NAMES = ("spawn_reap", "fanout_n", "clean_join", "ring")


def fanout_text(n: int) -> str:
    """The fanout model for a given worker count n >= 1."""
    if n < 1:
        raise ValueError("fanout needs n >= 1")
    tasks = "; ".join("(0)" for _ in range(n))
    return f"""\
# The leader starts {n} delegates; each begets one worker and dies,
# so the workers end up pairwise unrelated and fully interchangeable.
net fanout_n
place g GEN
place seed D
place boss P
place task D
place mid P
place work P
init seed {{ (0) }}
init task {{ {tasks} }}
trans lead
  in g {{ (p, c) }}
  in seed {{ (0) }}
  out g {{ (p, c) }}
  out boss {{ (p) }}
end
trans spawn
  in g {{ (b, c) }}
  in boss {{ (b) }}
  in task {{ (0) }}
  out g {{ (b, c+1); (b.(c+1), 0) }}
  out boss {{ (b) }}
  out mid {{ (b.(c+1)) }}
end
trans beget
  in g {{ (q, d) }}
  in mid {{ (q) }}
  out g {{ (q.(d+1), 0) }}
  out work {{ (q.(d+1)) }}
end
trans finish
  in g {{ (w, e) }}
  in work {{ (w) }}
end
"""


def model_text(name: str) -> str:
    """The text of a bundled model; fanout_n is the n=3 instance of fanout_text."""
    if name == "fanout_n":
        return fanout_text(3)
    return resources.files("pidsym.models").joinpath(f"{name}.tnet").read_text()


def load_model(name: str, n: int | None = None) -> TNet:
    """Parse a bundled model; ``n`` regenerates fanout_n at another width."""
    if name == "fanout_n" and n is not None:
        return parse_model(fanout_text(n))
    return parse_model(model_text(name))
