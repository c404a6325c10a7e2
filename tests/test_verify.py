"""Mutation controls showing that each verify suite can fail, each naming
the first counterexample; the acceptance module shows that they pass."""

import dataclasses
from fractions import Fraction

from vasskit import families, interp, verify
from vasskit.lang import Add, BinOp, For, Lit, Loop, Sub, Var


def test_double_exp_stage_exits_match_the_closed_form_to_k_10():
    for k in range(1, 11):
        assert verify._stage_exits(k) is None


def test_semantics_suite():
    """Bound 12 cuts the runs of three corpus members, against one at the
    suite's bound of 20; the interpreter and the compiled VASS must cut
    them alike."""
    for name, program in verify._semantics_corpus():
        assert verify.check_compiler_semantics(program, 12) is None, name


def test_run_suites_rejects_unknown():
    import pytest

    with pytest.raises(ValueError):
        verify.run_suites(["nope"])


def test_suite_result_json_shape():
    result = verify.suite_weak()
    obj = result.to_json_obj()
    assert obj["suite"] == "weak"
    assert obj["passed"] is True
    assert obj["checks"] and {"name", "passed", "detail"} <= set(obj["checks"][0])


def failures(result):
    return {c.name: c.detail for c in result.checks if not c.passed}


def mutated_cascade(n):
    """_cascade with the cascade multiplier (i+1)/i raised to (i+2)/i."""
    return (
        For(
            "i", Lit(n), Lit(1), True,
            (
                Loop((Sub("x", Lit(1)), Add("z", Lit(1)))),
                Loop((Add("x", BinOp("+", Var("i"), Lit(2))), Sub("z", Var("i")))),
            ),
        ),
        Loop((Sub("x", Lit(n + 1)), Sub("y", Lit(1)))),
    )


def test_exp_suite_fails_on_a_mutated_cascade(monkeypatch):
    monkeypatch.setattr(families, "_cascade", mutated_cascade)
    failed = failures(verify.suite_exp())
    assert failed["halting iff threshold divides the pump, at most one run (n <= 5)"] == (
        "n=1, x0=2: 2 halting runs"
    )
    # the canonical policy cannot drain the mutated cascade: the replay
    # raises, which fails the trend check instead of aborting the suite
    trend = failed["shortest = canonical length and strictly increasing (n <= 5)"]
    assert trend.startswith("raised PolicyStuckError: ")


def test_exp_suite_fails_on_a_second_pump_loop(monkeypatch):
    original = families._cascade
    monkeypatch.setattr(
        families, "_cascade", lambda n: (Loop((Add("z", Lit(1)),)),) + original(n)
    )
    failed = failures(verify.suite_exp())
    assert failed["halting iff threshold divides the pump, at most one run (n <= 5)"] == (
        "n=1, x0=1: 6 halting runs"
    )
    # building the canonical schedule fails the trend check, not the suite
    assert failed["shortest = canonical length and strictly increasing (n <= 5)"] == (
        "raised PolicyStuckError: expected exactly one pump loop, found entries [4, 8]"
    )


def test_fractions_suite_fails_on_a_perturbed_factor(monkeypatch):
    original = families.fraction_sequence

    def perturbed(k):
        seq = original(k)
        if k != 3:
            return seq
        f1 = seq.factors[0] + Fraction(1, 10**9)
        return dataclasses.replace(seq, factors=(f1,) + seq.factors[1:])

    monkeypatch.setattr(families, "fraction_sequence", perturbed)
    failed = failures(verify.suite_fractions())
    assert list(failed) == ["sequence invariants for k <= 16"]
    assert failed["sequence invariants for k <= 16"].startswith("k=3:")


def test_weak_weakmult_and_hp_suites_fail_on_an_overpaying_rebuild(monkeypatch):
    """gen_weak_mult's rebuild loop gains c+1 per d: weak, weakmult and hp
    all build on it, so each suite names the first start it breaks."""
    def overpaying(c, d):
        return families.CounterProgram(
            ("x", "y"),
            (
                Loop((Sub("x", Lit(1)), Add("y", Lit(1)))),
                Loop((Add("x", Lit(c + 1)), Sub("y", Lit(d)))),
            ),
        )

    monkeypatch.setattr(families, "gen_weak_mult", overpaying)
    assert failures(verify.suite_weak()) == {
        "weak(b) attains exactly b and never more, b <= 12": "b=2: final x values [0, 1, 3]"
    }
    # c/d first fails at y0 = d: from y0 < d the rebuild loop cannot run
    assert failures(verify.suite_weak_mult()) == {
        f"weak multiplication by {c}/{d}, sums <= 30":
            f"(x0,y0)=(0,{d}): BFS finals differ from analytic enumeration"
        for c, d in ((2, 1), (3, 2), (5, 3), (7, 4))
    }
    assert failures(verify.suite_hp()) == {
        "weak exponentiation by 3/2: bound, exactness iff divisibility (sums <= 16, z0 <= 3)":
            "(x0,y0,z0)=(0,2,1): final (4,0,0) above bound"
    }


def test_arith_suite_fails_on_a_perturbed_threshold(monkeypatch):
    original = verify.divisibility_threshold
    monkeypatch.setattr(verify, "divisibility_threshold", lambda n: original(n) + (n == 5))
    assert failures(verify.suite_arith()) == {
        "threshold(n)*(n+1) divisible by 2..n+1 for n <= 100": "n=5, divisor 4"
    }


def test_double_exp_suite_fails_on_a_raised_stage_ratio(monkeypatch):
    """Each stage multiplies by (c+d)/d instead of c/d, a fraction that
    stays irreducible, so the k = 1 member exits its stage above the closed
    form and its canonical run is no longer the shortest."""
    original = families.gen_hp
    monkeypatch.setattr(families, "gen_hp", lambda c, d: original(c + d, d))
    assert failures(verify.suite_double_exp()) == {
        "canonical run halts and stage exits match the closed form (k <= 8)":
            "k=1: stage exit x=81, closed form 25",
        "k=1: not flat; halting iff pump divisible by the forced divisor; "
        "shortest equals canonical": "k=1: shortest != canonical (found vs 338)",
    }


def test_double_exp_suite_fails_on_a_dropped_run_transition(monkeypatch):
    """Each compiled VASS loses the transitions out of its source state,
    which every canonical run takes first.  The replay emits the step
    anyway and `validate_run` rejects it; the probe-based stage exits
    still hold, and k = 1 no longer halts."""
    original = verify.compile_counter_program

    def dropping(program):
        compiled = original(program)
        v = compiled.vass
        kept = tuple(t for t in v.transitions if t.src != v.source.state)
        return dataclasses.replace(compiled, vass=dataclasses.replace(v, transitions=kept))

    monkeypatch.setattr(verify, "compile_counter_program", dropping)
    assert failures(verify.suite_double_exp()) == {
        "canonical run validates (k <= 8)":
            "k=1: canonical run fails validation: step 0 uses a transition not in the VASS",
        "k=1: not flat; halting iff pump divisible by the forced divisor; "
        "shortest equals canonical": "k=1: no halting run found (exhausted-within-bound)",
    }


def test_np_suite_fails_on_a_one_off_load_amount(monkeypatch):
    """Each reduction's meta declares its `load` component's amount one
    above the target the program loads.  The runs still halt and validate,
    so only the meter fails, at the first yes-instance of each line."""
    original = families.gen_np

    def one_off(inst):
        program, meta = original(inst)
        load, *rest = meta.components
        load = dataclasses.replace(load, amount=load.amount + 1)
        return program, dataclasses.replace(meta, components=(load, *rest))

    monkeypatch.setattr(families, "gen_np", one_off)
    assert failures(verify.suite_np()) == {
        "per-component f/u accounting on halting runs":
            "NpInstance(target=1, values=(1,)): component load touched u 1 times, expected 2",
        "yes-instances: the canonical subset run halts, validates and meters f and u "
        "(k <= 16, values < 2^12)":
            "NpInstance(target=2977, values=(2977, 316)): component load touched u 2977 times, "
            "expected 2978",
    }


def test_sizes_suite_fails_on_a_squared_parameter(monkeypatch):
    original = families.gen_exp
    monkeypatch.setattr(families, "gen_exp", lambda n: original(n * n))
    assert failures(verify.suite_sizes()) == {
        "exponential family: unary size within 73*n^2 for n <= 8": "n=2: unary size 325 > 73*n^2"
    }


def test_semantics_suite_fails_on_a_dropped_transition(monkeypatch):
    original = verify.compile_program

    def dropping(flat):
        compiled = original(flat)
        vass = dataclasses.replace(compiled.vass, transitions=compiled.vass.transitions[1:])
        return dataclasses.replace(compiled, vass=vass)

    monkeypatch.setattr(verify, "compile_program", dropping)
    result = verify.suite_semantics()
    failed = failures(result)
    assert len(failed) == len(result.checks) == 9
    assert all(detail.startswith("sets differ; interpreter-only") for detail in failed.values())


def test_semantics_suite_fails_on_the_interpreter_node_budget(monkeypatch):
    monkeypatch.setattr(interp, "_MAX_CONFIGS", 5)
    result = verify.suite_semantics()
    failed = failures(result)
    assert len(failed) == len(result.checks) == 9
    assert set(failed.values()) == {
        "raised BudgetExceededError: interpreter exploration exceeded 5 configurations"
    }
