"""Net validation against the five requirements, binding enumeration, firing."""

import pytest

from pidsym import Marking, Pid, PlaceDecl, TNet, Transition, enabled, fire, validate
from pidsym.net import (
    Add,
    And,
    BoolLit,
    ChildOf,
    Cmp,
    GuardTypeError,
    Lit,
    NotEnabled,
    Var,
)

P = Pid.parse


def gen_place():
    return PlaceDecl("g", ("P", "D"), generator=True)


def std_init(extra=None):
    data = {"g": [(P("1"), 0)]}
    if extra:
        data.update(extra)
    return Marking(data)


def spawner_net(n_children=1):
    """One transition that spawns n children per firing, forever."""
    gen_out = [(Var("p"), Add(Var("c"), n_children))]
    gen_out += [(ChildOf(Var("p"), Var("c"), j), Lit(0)) for j in range(1, n_children + 1)]
    t = Transition(
        name="t_spawn",
        inputs=((("g"), ((Var("p"), Var("c")),)),),
        outputs=(("g", tuple(gen_out)),),
    )
    return TNet("spawner", (gen_place(),), (t,), std_init())


def test_structural_errors_raise_at_construction():
    with pytest.raises(ValueError):
        TNet("dup", (gen_place(), gen_place()), (), std_init())
    with pytest.raises(ValueError):
        TNet(
            "unknown-place",
            (gen_place(),),
            (Transition("t", inputs=(("nope", ((Var("x"),),)),)),),
            std_init(),
        )


def test_validate_accepts_spawner():
    assert validate(spawner_net()) == []


def test_req1_two_generators():
    net = TNet(
        "twogen",
        (gen_place(), PlaceDecl("g2", ("P", "D"), generator=True)),
        (),
        std_init(),
    )
    out = validate(net)
    assert [v.req for v in out] == [1]


def test_req1_bad_generator_type():
    net = TNet("badsig", (PlaceDecl("g", ("P", "P"), generator=True),), (), Marking({"g": [(P("1"), P("1"))]}))
    assert 1 in [v.req for v in validate(net)]


def test_req2_wrong_initial_token():
    net = TNet("badinit", (gen_place(),), (), Marking({"g": [(P("2"), 0)]}))
    assert [v.req for v in validate(net)] == [2]


def test_req2_pid_in_data_place():
    net = TNet(
        "pidinit",
        (gen_place(), PlaceDecl("s", ("P",))),
        (),
        std_init({"s": [(P("1.1"),)]}),
    )
    assert 2 in [v.req for v in validate(net)]


def test_req3_counter_advance_must_match_births():
    t = Transition(
        name="t",
        inputs=(("g", ((Var("p"), Var("c")),)),),
        outputs=(("g", ((Var("p"), Add(Var("c"), 1)),)),),  # advance 1, no birth
    )
    net = TNet("skew", (gen_place(),), (t,), std_init())
    assert 3 in [v.req for v in validate(net)]


def test_req3_births_must_be_consecutive():
    t = Transition(
        name="t",
        inputs=(("g", ((Var("p"), Var("c")),)),),
        outputs=(("g", ((Var("p"), Add(Var("c"), 2)), (ChildOf(Var("p"), Var("c"), 2), Lit(0)))),),
    )
    net = TNet("gap", (gen_place(),), (t,), std_init())
    assert 3 in [v.req for v in validate(net)]


def test_req3_variables_must_be_distinct():
    t = Transition(
        name="t",
        inputs=(("g", ((Var("p"), Var("c")), (Var("p"), Var("d")))),),
    )
    net = TNet("dupvar", (gen_place(),), (t,), std_init())
    assert 3 in [v.req for v in validate(net)]


def test_req3_generator_output_needs_matching_input():
    t = Transition(
        name="t",
        outputs=(("g", ((Var("p"), Add(Var("c"), 1)),)),),
    )
    net = TNet("orphanout", (gen_place(),), (t,), std_init())
    assert 3 in [v.req for v in validate(net)]


def test_req4_counter_must_not_leak():
    t = Transition(
        name="t",
        inputs=(("g", ((Var("p"), Var("c")),)),),
        outputs=(("g", ((Var("p"), Var("c")),)), ("s", ((Var("c"),),))),
    )
    net = TNet("leak", (gen_place(), PlaceDecl("s", ("D",))), (t,), std_init())
    assert 4 in [v.req for v in validate(net)]


def test_req4_only_survivors_and_children_produce_pids():
    # w is consumed from the generator and not returned: writing it out is invalid
    t = Transition(
        name="t",
        inputs=(("g", ((Var("w"), Var("d")),)),),
        outputs=(("s", ((Var("w"),),)),),
    )
    net = TNet("deadwrite", (gen_place(), PlaceDecl("s", ("P",))), (t,), std_init())
    assert 4 in [v.req for v in validate(net)]


def test_req5_integer_comparison_on_pids():
    t = Transition(
        name="t",
        guard=Cmp("<", Var("p1"), Var("p2")),
        inputs=(("g", ((Var("p1"), Var("c1")), (Var("p2"), Var("c2")))),),
        outputs=(("g", ((Var("p1"), Var("c1")), (Var("p2"), Var("c2")))),),
    )
    net = TNet("intcmp", (gen_place(),), (t,), std_init())
    assert 5 in [v.req for v in validate(net)]


def test_req5_counter_guard_rejected():
    t = Transition(
        name="t",
        guard=Cmp("<", Var("c"), Lit(3)),
        inputs=(("g", ((Var("p"), Var("c")),)),),
        outputs=(("g", ((Var("p"), Var("c")),)),),
    )
    net = TNet("ctrguard", (gen_place(),), (t,), std_init())
    assert 5 in [v.req for v in validate(net)]


def test_req5_pid_op_needs_generator_bound_operands():
    t = Transition(
        name="t",
        guard=Cmp("<1", Var("p"), Var("x")),
        inputs=(("g", ((Var("p"), Var("c")),)), ("s", ((Var("x"),),))),
        outputs=(("g", ((Var("p"), Var("c")),)),),
    )
    net = TNet("datapid", (gen_place(), PlaceDecl("s", ("P",))), (t,), std_init())
    assert 5 in [v.req for v in validate(net)]


# -- enabled / fire ---------------------------------------------------------


def test_enabled_empty_marking():
    net = spawner_net()
    assert enabled(net, Marking()) == []


def test_enabled_spawner_initial():
    net = spawner_net()
    out = enabled(net, net.init)
    assert len(out) == 1
    t, b = out[0]
    assert t.name == "t_spawn"
    assert b == {"p": P("1"), "c": 0}


def test_enabled_false_guard():
    t = Transition(
        name="t",
        guard=BoolLit(False),
        inputs=(("g", ((Var("p"), Var("c")),)),),
        outputs=(("g", ((Var("p"), Var("c")),)),),
    )
    net = TNet("never", (gen_place(),), (t,), std_init())
    assert enabled(net, net.init) == []


def test_fire_spawner_advances_counter_and_births():
    net = spawner_net()
    (t, b), = enabled(net, net.init)
    m2 = fire(net, net.init, t, b)
    assert set(m2.tokens("g")) == {(P("1"), 1), (P("1.1"), 0)}
    # firing is pure: the input marking is untouched, results reproducible
    assert net.init.tokens("g") == ((P("1"), 0),)
    assert fire(net, net.init, t, b) == m2


def test_fire_not_enabled():
    net = spawner_net()
    (t, _), = enabled(net, net.init)
    with pytest.raises(NotEnabled):
        fire(net, net.init, t, {"p": P("1"), "c": 7})


def test_fire_false_guard_is_not_enabled():
    t = Transition(
        name="t",
        guard=Cmp("==", Var("x"), Lit(2)),
        inputs=(("a", ((Var("x"),),)),),
        outputs=(),
    )
    net = TNet("two", (gen_place(), PlaceDecl("a", ("D",))), (t,), std_init({"a": [(1,), (2,)]}))
    assert fire(net, net.init, t, {"x": 2}).tokens("a") == ((1,),)
    with pytest.raises(NotEnabled):
        fire(net, net.init, t, {"x": 1})


def test_fire_binding_missing_an_input_variable_is_not_enabled():
    net = spawner_net()
    (t, _), = enabled(net, net.init)
    with pytest.raises(NotEnabled):
        fire(net, net.init, t, {"p": P("1")})


def test_fire_produced_token_breaking_its_place_type_is_not_enabled():
    t = Transition(
        name="t",
        inputs=(("a", ((Var("x"),),)),),
        outputs=(("b", ((Var("x"),),)),),
    )
    net = TNet(
        "badtype",
        (gen_place(), PlaceDecl("a", ("D",)), PlaceDecl("b", ("P",))),
        (t,),
        std_init({"a": [(5,)]}),
    )
    assert enabled(net, net.init) == []
    with pytest.raises(NotEnabled):
        fire(net, net.init, t, {"x": 5})


def test_fire_without_generator_arc_leaves_generator_alone():
    t = Transition(
        name="shift",
        inputs=(("a", ((Var("x"),),)),),
        outputs=(("b", ((Var("x"),),)),),
    )
    net = TNet(
        "mover",
        (gen_place(), PlaceDecl("a", ("D",)), PlaceDecl("b", ("D",))),
        (t,),
        std_init({"a": [(5,)]}),
    )
    (pair,) = enabled(net, net.init)
    m2 = fire(net, net.init, *pair)
    assert m2.tokens("g") == net.init.tokens("g")
    assert m2.tokens("a") == () and m2.tokens("b") == ((5,),)


def test_multiset_sizes_follow_the_firing_rule():
    net = spawner_net(n_children=2)
    (t, b), = enabled(net, net.init)
    m2 = fire(net, net.init, t, b)
    assert len(m2.tokens("g")) == len(net.init.tokens("g")) - 1 + 3


def test_enabled_is_deterministic_and_sorted():
    t = Transition(
        name="pick",
        inputs=(("a", ((Var("x"),),)),),
        outputs=(("a", ((Var("x"),),)),),
    )
    net = TNet("pick2", (gen_place(), PlaceDecl("a", ("D",))), (t,), std_init({"a": [(2,), (1,)]}))
    out1 = enabled(net, net.init)
    out2 = enabled(net, net.init)
    assert out1 == out2
    assert [b["x"] for _, b in out1] == [1, 2]


def test_repeated_variable_must_rebind_equal():
    t = Transition(
        name="eq",
        inputs=(("a", ((Var("x"),),)), ("b", ((Var("x"),),))),
        outputs=(),
    )
    net = TNet(
        "join",
        (gen_place(), PlaceDecl("a", ("D",)), PlaceDecl("b", ("D",))),
        (t,),
        std_init({"a": [(1,), (2,)], "b": [(2,), (3,)]}),
    )
    out = enabled(net, net.init)
    assert [b["x"] for _, b in out] == [2]


def test_guard_type_error_at_evaluation():
    t = Transition(
        name="t",
        guard=Cmp("<1", Var("p"), Var("p")),
        inputs=(("a", ((Var("p"),),)),),
        outputs=(),
    )
    net = TNet("oops", (gen_place(), PlaceDecl("a", ("D",))), (t,), std_init({"a": [(5,)]}))
    with pytest.raises(GuardTypeError):
        enabled(net, net.init)
    with pytest.raises(GuardTypeError):
        fire(net, net.init, t, {"p": 5})


def test_guard_conjunction_and_data_comparison():
    t = Transition(
        name="t",
        guard=And((Cmp("==", Var("x"), Lit(2)), Cmp("<", Lit(1), Var("x")))),
        inputs=(("a", ((Var("x"),),)),),
        outputs=(),
    )
    net = TNet("conj", (gen_place(), PlaceDecl("a", ("D",))), (t,), std_init({"a": [(1,), (2,)]}))
    out = enabled(net, net.init)
    assert [b["x"] for _, b in out] == [2]


def test_guard_symbol_equality():
    t = Transition(
        name="t",
        guard=Cmp("==", Var("s"), Lit("READY")),
        inputs=(("a", ((Var("s"),),)),),
        outputs=(),
    )
    net = TNet(
        "syms", (gen_place(), PlaceDecl("a", ("D",))), (t,), std_init({"a": [("READY",), ("DONE",)]})
    )
    out = enabled(net, net.init)
    assert [b["s"] for _, b in out] == ["READY"]
