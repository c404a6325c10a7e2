import hashlib
import math
import tracemalloc
from fractions import Fraction

import pytest

from vasskit.arith import description_size
from vasskit.compiler import compile_counter_program
from vasskit.errors import PolicyStuckError
from vasskit.expand import expand
from vasskit.families import (
    NpInstance,
    double_exp_canonical_policy,
    fraction_sequence,
    gen_double_exp,
    gen_double_exp_fixed,
    gen_exp,
    gen_exp_fixed,
    gen_hp,
    gen_np,
    gen_weak,
    gen_weak_mult,
    maximal_policy,
    subset_sum_brute,
    subset_sum_witness,
    with_initial_values,
)
from vasskit.lang import Add, Lit, Loop, Sub, parse, pretty_print
from vasskit.search import SearchBudget, Verdict, halting_reachable, replay_canonical
from vasskit.vass import is_flat, validate_run, vass_size


class TestWeakMult:
    def test_structure_matches_two_loop_fragment(self):
        assert gen_weak_mult(2, 1) == parse(
            "counters x y\nloop\n  x -= 1\n  y += 1\nendloop\nloop\n  x += 2\n  y -= 1\nendloop\n"
        )

    def test_rejects_non_shrinking_ratio(self):
        with pytest.raises(ValueError):
            gen_weak_mult(1, 1)
        with pytest.raises(ValueError):
            gen_weak_mult(2, 3)


class TestWeak:
    def test_single_bit(self):
        flat = expand(gen_weak(1))
        # one stage: flash loop, double loop, and the +1 for the single bit
        adds = [c for c in flat.lines if isinstance(c, Add) and c.counter == "x" and c.amount == 1]
        assert len(adds) == 1

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            gen_weak(0)

    def test_round_trips_through_text(self):
        p = gen_weak(6)
        assert parse(pretty_print(p)) == p


class TestExpFamily:
    def test_dimension_and_flatness(self):
        compiled = compile_counter_program(gen_exp(1))
        assert compiled.vass.dimension == 3
        assert is_flat(compiled.vass).is_flat

    def test_fixed_variant_replaces_pump(self):
        flat = expand(gen_exp_fixed(2, 7))
        assert flat.lines[1] == Add("x", 7)
        assert flat.lines[2] == Add("y", 7)
        # exactly one loop fewer than the free-pump variant
        assert len(flat.loops) == len(expand(gen_exp(2)).loops) - 1

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            gen_exp(0)
        with pytest.raises(ValueError):
            gen_exp_fixed(1, 0)

    def test_halting_examples(self):
        # threshold(2) = 2 divides 2; threshold(3) = 3 does not divide 4
        good = compile_counter_program(gen_exp_fixed(2, 2))
        assert halting_reachable(good.vass, SearchBudget(20)).verdict == Verdict.FOUND
        bad = compile_counter_program(gen_exp_fixed(3, 4))
        assert halting_reachable(bad.vass, SearchBudget(25)).verdict == Verdict.EXHAUSTED


class TestHp:
    def test_structure(self):
        p = gen_hp(3, 2)
        outer = p.body[0]
        assert isinstance(outer, Loop)
        assert isinstance(outer.body[0], Loop) and isinstance(outer.body[1], Loop)
        assert outer.body[2] == Sub("z", Lit(1))

    def test_rejects_reducible_or_flat_ratio(self):
        with pytest.raises(ValueError):
            gen_hp(2, 2)
        with pytest.raises(ValueError):
            gen_hp(4, 2)

    def test_exact_power_example(self):
        prog = with_initial_values(gen_hp(3, 2), {"x": 4, "z": 2})
        compiled = compile_counter_program(prog)
        out = replay_canonical(compiled, maximal_policy(compiled.program))
        assert out.final.vector == (9, 0, 0)


class TestFractionSequence:
    def test_k1(self):
        seq = fraction_sequence(1)
        assert seq.ratios == (Fraction(5, 4),)
        assert seq.factors == (Fraction(5, 4),)
        assert seq.product == Fraction(25, 16)
        assert seq.factors[0] ** 2 == seq.product

    def test_k2(self):
        seq = fraction_sequence(2)
        assert seq.ratios == (Fraction(9, 8), Fraction(17, 16))
        assert seq.factors == (Fraction(18, 17), Fraction(17, 16))
        assert seq.product == Fraction(23409, 16384)
        assert seq.factors[0] ** 2 * seq.factors[1] ** 4 == seq.product

    def test_last_factor_closed_form(self):
        for k in (1, 2, 3, 5, 8):
            assert fraction_sequence(k).factors[-1] == 1 + Fraction(1, 4**k)

    def test_tower_identity_and_size_bounds(self):
        for k in range(1, 9):
            seq = fraction_sequence(k)
            tower = math.prod(
                (f ** (2**i) for i, f in enumerate(seq.factors, start=1)),
                start=Fraction(1),
            )
            assert tower == seq.product
            bound = 4 ** (k * k + k)
            assert all(description_size(f) <= bound for f in seq.factors)
            assert description_size(seq.product) <= bound**2

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            fraction_sequence(0)


# sha256 of the canonical replay probe of gen_double_exp(k): length, peak,
# then per loop its entry, activations, last count and last exit vector
DOUBLE_EXP_PROBES = {
    1: "bbceff8dfd759899eb96e3df690b04f0",
    2: "b09253a30d833bd943b13960d72b47ab",
    3: "5a4f1781a41baa80f96062aa9326341a",
    4: "44c5788889b3bd51273ce691d6a6eaa1",
    5: "8ced0b83ae25596e277c8e44729780cf",
    6: "9677f81b84bde9ac6b8af1d2801b8676",
    7: "b7d315e2838071414cfe3f76287bab39",
    8: "b8763f43450eea0d9c09e7e756f72378",
    9: "237ce104a21caeda3a31dd8cbc2cc6b9",
    10: "e92c34e9efacd0b45fdeed114e0f02c0",
}


class TestDoubleExp:
    def test_meta_k1(self):
        _program, meta = gen_double_exp(1)
        assert meta.fractions.factors == (Fraction(5, 4),)
        assert meta.canonical_pump == 16  # 4^2
        assert meta.forced_divisor == 16

    def test_not_flat(self):
        program, _ = gen_double_exp(1)
        assert not is_flat(compile_counter_program(program).vass).is_flat

    def test_has_halting_run(self):
        program, meta = gen_double_exp(1)
        compiled = compile_counter_program(program)
        res = halting_reachable(compiled.vass, SearchBudget(64, 4_000_000))
        assert res.verdict == Verdict.FOUND

    def test_canonical_pump_halts_exactly(self):
        program, meta = gen_double_exp(2)
        compiled = compile_counter_program(program)
        out = replay_canonical(
            compiled,
            double_exp_canonical_policy(compiled.program, meta.canonical_pump),
            materialize=False,
        )
        assert out.halting

    @pytest.mark.parametrize("k", range(1, 11))
    def test_canonical_probe_is_pinned(self, k):
        # no stepwise reference can walk these runs (2exp(2) already has
        # 639,678,417 steps), so the fast-forward replay is held to the
        # probe it gave before; bytes, not str(), which refuses ints over
        # 4,300 digits
        program, meta = gen_double_exp(k)
        compiled = compile_counter_program(program)
        policy = double_exp_canonical_policy(compiled.program, meta.canonical_pump)
        probe = replay_canonical(compiled, policy, materialize=False).probe
        values = [probe.length, *probe.peak]
        for obs in probe.loops.values():
            values += [obs.entry_line, obs.activations, obs.iterations[-1], *obs.exit_vectors[-1]]
        h = hashlib.sha256()
        for x in values:
            size = (x.bit_length() + 7) // 8
            h.update(size.to_bytes(8, "little"))
            h.update(x.to_bytes(size, "little"))
        assert h.hexdigest()[:32] == DOUBLE_EXP_PROBES[k]

    def test_canonical_pump_is_not_the_least_halting_pump(self):
        # at k = 2 the least halting pump is forced_divisor; canonical_pump
        # is 289 times that and its run about 289 times as long
        _, meta = gen_double_exp(2)
        assert (meta.forced_divisor, meta.canonical_pump) == (65_536, 289 * 65_536)

        def replay(pump, materialize=False):
            compiled = compile_counter_program(gen_double_exp_fixed(2, pump)[0])
            policy = maximal_policy(compiled.program)
            return compiled, replay_canonical(compiled, policy, materialize=materialize)

        compiled, least = replay(65_536, materialize=True)
        assert least.halting and least.probe.length == 1_951_316
        report = validate_run(compiled.vass, least.run)
        assert report.ok and report.halting
        assert replay(meta.canonical_pump)[1].probe.length == 563_918_804
        with pytest.raises(PolicyStuckError, match="not divisible"):
            replay(32_768)

    def test_canonical_replay_memory_peak(self):
        # the walk keeps the counters, the peaks and each loop's last
        # activation, about 0.4 MB here; a probe of every activation's count
        # and exit vector held about 48 MB
        program, meta = gen_double_exp(10)
        compiled = compile_counter_program(program)
        policy = double_exp_canonical_policy(compiled.program, meta.canonical_pump)
        tracemalloc.start()
        try:
            replay_canonical(compiled, policy, materialize=False)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4_000_000

    def test_binary_constants_in_program(self):
        program, meta = gen_double_exp(2)
        flat = expand(program)
        amounts = {c.amount for c in flat.lines if isinstance(c, (Add, Sub))}
        f = meta.fractions
        assert f.product.numerator in amounts and f.product.denominator in amounts
        assert 4 in amounts  # the stage budget 2^2 loaded into z

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            gen_double_exp(0)
        with pytest.raises(ValueError):
            gen_double_exp_fixed(1, 0)


class TestSubsetSumBrute:
    def test_examples(self):
        assert subset_sum_brute(3, (1, 2)) is True
        assert subset_sum_brute(2, (1,)) is False
        assert subset_sum_brute(0, ()) is True  # empty subset

    def test_duplicates_are_distinct_items(self):
        assert subset_sum_brute(2, (1, 1)) is True

    def test_matches_exhaustive_enumeration(self):
        import itertools

        for values in itertools.product((1, 2, 3), repeat=3):
            for target in range(0, 10):
                want = any(
                    sum(sub) == target
                    for r in range(len(values) + 1)
                    for sub in itertools.combinations(values, r)
                )
                assert subset_sum_brute(target, values) == want

    def test_rejects_oversize(self):
        with pytest.raises(ValueError):
            subset_sum_brute(1, tuple([1] * 26))


class TestSubsetSumWitness:
    def test_none_exactly_when_oracle_is_negative(self):
        import itertools

        for k in range(4):
            for values in itertools.product((1, 2, 3), repeat=k):
                for target in range(0, 10):
                    picks = subset_sum_witness(target, values)
                    assert (picks is None) == (not subset_sum_brute(target, values))
                    if picks is not None:
                        assert picks <= set(range(1, k + 1))
                        assert sum(values[i - 1] for i in picks) == target

    def test_smallest_then_first_subset(self):
        assert subset_sum_witness(3, (1, 2, 3)) == {3}
        assert subset_sum_witness(2, (1, 1, 2)) == {3}
        assert subset_sum_witness(2, (1, 1)) == {1, 2}
        assert subset_sum_witness(0, (4,)) == set()


class TestNpInstance:
    def test_derived_parameters(self):
        inst = NpInstance(3, (1, 2))
        assert inst.n == 3
        assert inst.threshold == 3

    def test_rejects_bad_instances(self):
        with pytest.raises(ValueError):
            NpInstance(0, (1,))
        with pytest.raises(ValueError):
            NpInstance(1, ())
        with pytest.raises(ValueError):
            NpInstance(1, (0,))


# sha256 of pretty_print(gen_np(NpInstance(target, values))[0]), keyed by
# (target, values), with the threshold and its bit length alongside
NP_TEXTS = {
    (1, (1,)): (1, 1, "df3e5859b4a43486b0272847ee2cb1aa9f2b849edbbae814a2ace70ddfa1f812"),
    (2, (1,)): (2, 2, "aab481077be9a609fdbef8018028a67ecd420b7dedf9fdca32668d87cf556ac0"),
    (3, (1, 2)): (3, 2, "9c0e00eb65a467109d5d5d9cbd88c95e204fa5f7463fef6c088b17c4a22b9114"),
    (9, (1, 2, 3, 4, 5, 1, 2)): (
        12, 4, "4c57f667940cebbe38583ce99ec0a5dce3c9800a8c89e768723b24c8c92d6df0"),
    (50, (7, 43)): (60, 6, "e668dc19b37c0f70b32ea295ac61b018651e44bc369f495d00887e0481f3d91e"),
}


class TestGenNp:
    @pytest.mark.parametrize("target, values", NP_TEXTS)
    def test_text_is_pinned_across_bit_widths(self, target, values):
        program, meta = gen_np(NpInstance(target, values))
        text = pretty_print(program).encode()
        got = (meta.threshold, meta.threshold.bit_length(), hashlib.sha256(text).hexdigest())
        assert got == NP_TEXTS[target, values]

    def test_seven_counters_flat(self):
        program, meta = gen_np(NpInstance(3, (1, 2)))
        compiled = compile_counter_program(program)
        assert compiled.vass.dimension == 7
        assert is_flat(compiled.vass).is_flat
        assert [c.label for c in meta.components] == ["load", "skip1", "take1", "skip2", "take2"]

    def test_positive_instance_halts(self):
        program, meta = gen_np(NpInstance(3, (1, 2)))
        compiled = compile_counter_program(program)
        bound = 8 * meta.threshold * 3
        assert halting_reachable(compiled.vass, SearchBudget(bound, 8_000_000)).verdict == Verdict.FOUND

    def test_negative_instance_exhausts(self):
        program, meta = gen_np(NpInstance(2, (1,)))
        compiled = compile_counter_program(program)
        bound = 8 * meta.threshold * 2
        assert (
            halting_reachable(compiled.vass, SearchBudget(bound, 8_000_000)).verdict
            == Verdict.EXHAUSTED
        )

    def test_program_round_trips_through_text(self):
        program, _meta = gen_np(NpInstance(2, (1, 2)))
        assert parse(pretty_print(program)) == program


class TestSizeTrends:
    def test_exp_unary_quadratic(self):
        base = vass_size(compile_counter_program(gen_exp(1)).vass, "unary")
        for n in range(1, 9):
            size = vass_size(compile_counter_program(gen_exp(n)).vass, "unary")
            assert size <= base * n * n

    def test_double_exp_binary_cubic(self):
        base = vass_size(compile_counter_program(gen_double_exp(1)[0]).vass, "binary")
        for k in range(1, 9):
            size = vass_size(compile_counter_program(gen_double_exp(k)[0]).vass, "binary")
            assert size <= base * k**3

    def test_unnested_loop_programs_are_flat(self):
        corpus = [
            gen_weak(5),
            gen_exp(3),
            gen_exp_fixed(2, 4),
            with_initial_values(gen_weak_mult(5, 3), {"x": 3}),
        ]
        for program in corpus:
            assert is_flat(compile_counter_program(program).vass).is_flat
