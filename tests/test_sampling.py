import hashlib
import math
import random

import pytest

from primegen import sampling
from primegen.sampling import (
    MAX_SEED,
    FilterPolicy,
    make_stream,
    pool_size,
    random_candidate,
)

BOTH = FilterPolicy.BOTH
NONE = FilterPolicy.NONE
LAST = FilterPolicy.LAST_DIGIT
POLICIES = (NONE, LAST, BOTH)


def enumerate_pool(digits: int, policy: FilterPolicy) -> list[int]:
    return [n for n in range(10 ** (digits - 1), 10**digits) if math.gcd(n, policy.wheel) == 1]


def digit_sum_root(n: int) -> int:
    """Literal iterated digit summing."""
    while n >= 10:
        n = sum(int(d) for d in str(n))
    return n


def paper_filters(n: int, policy: FilterPolicy) -> bool:
    """The filters as the paper states them: last digit in {1, 3, 7, 9}, and
    with both filters a digital root not in {3, 6, 9}."""
    if policy.wheel >= 10 and n % 10 not in (1, 3, 7, 9):
        return False
    return policy.wheel < 30 or digit_sum_root(n) not in (3, 6, 9)


class TestFilterPolicy:
    def test_constructors_and_labels(self):
        assert [(p.wheel, p.label) for p in POLICIES] == [(1, "none"), (10, "last-digit"), (30, "both")]
        assert FilterPolicy(30) is BOTH

    def test_other_moduli_rejected(self):
        for wheel in (0, 2, 6, 210):
            with pytest.raises(ValueError):
                FilterPolicy(wheel)

    @pytest.mark.parametrize("digits", [2, 3, 4, 5])
    @pytest.mark.parametrize("policy", POLICIES, ids=lambda p: p.label)
    def test_wheel_members_are_the_paper_pool(self, digits, policy):
        span = range(10 ** (digits - 1), 10**digits)
        assert enumerate_pool(digits, policy) == [n for n in span if paper_filters(n, policy)]


class TestPoolSize:
    @pytest.mark.parametrize("digits", [2, 3, 4])
    @pytest.mark.parametrize(
        "policy,expected_fn",
        [
            # pinned to the ids these rows have always run under
            pytest.param(NONE, lambda d: 9 * 10 ** (d - 1), id="policy0-<lambda>"),
            pytest.param(LAST, lambda d: 36 * 10 ** (d - 2), id="policy1-<lambda>"),
            pytest.param(BOTH, lambda d: 24 * 10 ** (d - 2), id="policy3-<lambda>"),
        ],
    )
    def test_formula_matches_enumeration(self, digits, policy, expected_fn):
        expected = expected_fn(digits)
        assert len(enumerate_pool(digits, policy)) == expected
        assert pool_size(digits, policy) == expected

    @pytest.mark.parametrize("digits", [2, 3, 4, 5, 6])
    def test_both_filters_exhaustive(self, digits):
        pool = enumerate_pool(digits, BOTH)
        assert len(pool) == 24 * 10 ** (digits - 2)
        # the filtered pool can hold no multiple of 2, 3 or 5
        assert all(n % 2 and n % 3 and n % 5 for n in pool)

    def test_reference_magnitudes(self):
        assert pool_size(75, NONE) == 9 * 10**74
        assert pool_size(75, LAST) == 36 * 10**73
        assert pool_size(6, BOTH) == 240000
        assert pool_size(4300, BOTH) == 24 * 10**4298

    def test_domain_error(self):
        with pytest.raises(ValueError):
            pool_size(1, BOTH)


class TestRandomCandidate:
    def test_two_digit_draws_stay_in_pool_and_cover_it(self):
        rng = make_stream(123)
        for policy in POLICIES:
            pool = set(enumerate_pool(2, policy))
            seen = {random_candidate(2, policy, rng).n for _ in range(2000)}
            assert seen == pool

    def test_seventy_five_digit_postconditions(self):
        rng = make_stream(7)
        for _ in range(50):
            c = random_candidate(75, BOTH, rng)
            assert c.digits == 75 and len(str(c.n)) == 75
            assert paper_filters(c.n, BOTH)

    def test_one_draw_per_candidate(self, monkeypatch):
        # one randrange below the pool count, so one hash, per candidate
        class Recording:
            def __init__(self, rng):
                self.rng = rng

            def __getattr__(self, name):
                calls.append(name)
                return getattr(self.rng, name)

        calls, hashed = [], []
        monkeypatch.setattr(sampling, "shake_256", lambda data: hashed.append(data) or hashlib.shake_256(data))
        for policy in POLICIES:
            for digits in (2, 30):
                random_candidate(digits, policy, Recording(make_stream(8)))
        assert calls == ["randrange"] * 6
        assert len(hashed) == 6

    def test_unfiltered_digit_length_and_leading_digit_uniformity(self):
        rng = make_stream(99)
        counts = [0] * 10
        for _ in range(10**5):
            c = random_candidate(5, NONE, rng)
            assert c.digits == 5
            counts[int(str(c.n)[0])] += 1
        assert counts[0] == 0
        expected = 10**5 / 9
        sigma = math.sqrt(10**5 * (1 / 9) * (8 / 9))
        for d in range(1, 10):
            assert abs(counts[d] - expected) <= 3 * sigma

    def test_uniform_over_three_digit_pool(self):
        # chi-square style cell check: every member within 4 sigma of 1/240
        pool = enumerate_pool(3, BOTH)
        assert len(pool) == 240
        counts = dict.fromkeys(pool, 0)
        rng = make_stream(2024)
        draws = 10**6
        for _ in range(draws):
            counts[random_candidate(3, BOTH, rng).n] += 1
        expected = draws / 240
        sigma = math.sqrt(draws * (1 / 240) * (239 / 240))
        worst = max(abs(c - expected) for c in counts.values())
        assert worst <= 4 * sigma

    def test_determinism_same_seed_same_stream(self):
        first = [random_candidate(10, BOTH, make_stream(5, i)).n for i in range(1000)]
        second = [random_candidate(10, BOTH, make_stream(5, i)).n for i in range(1000)]
        assert first == second

    def test_single_digit_rejected(self):
        with pytest.raises(ValueError):
            random_candidate(1, BOTH, random.Random(0))


class TestCandidate:
    @pytest.mark.parametrize("policy", POLICIES, ids=lambda p: p.label)
    def test_lowest_and_highest_draws_are_the_pool_ends(self, policy):
        # Candidate does not check its range: the draw's arithmetic keeps it,
        # so the lowest and highest draw below the pool size must be the
        # first and last pool members of the d-digit range
        class Ends:
            """randrange(k) returns 0, then k - 1, and records each k."""

            def __init__(self):
                self.sizes = []

            def randrange(self, k):
                self.sizes.append(k)
                return 0 if len(self.sizes) == 1 else k - 1

        w = policy.wheel
        for digits in (*range(2, 41), 4300):
            stream = Ends()
            low = random_candidate(digits, policy, stream)
            high = random_candidate(digits, policy, stream)
            assert stream.sizes == [pool_size(digits, policy)] * 2
            assert (low.n, high.n) == (10 ** (digits - 1) + policy.offsets[0], 10**digits - w + policy.offsets[-1])
            for c in (low, high):
                assert c.digits == digits and 10 ** (digits - 1) <= c.n < 10**digits
                assert math.gcd(c.n, w) == 1

    def test_fields_and_immutability(self):
        c = sampling.Candidate(101, 3)
        assert (c.n, c.digits) == (101, 3) and c == sampling.Candidate(n=101, digits=3)
        with pytest.raises(AttributeError):
            c.n = 103


class TestMakeStream:
    def test_seed_range_enforced(self):
        with pytest.raises(ValueError):
            make_stream(2**64)
        with pytest.raises(ValueError):
            make_stream(-1)
        with pytest.raises(ValueError):
            make_stream(3, -1)
        make_stream(3, MAX_SEED)
        with pytest.raises(ValueError):
            make_stream(3, 2**64)

    def test_unseeded_stream_is_system_randomness(self):
        assert isinstance(make_stream(None), random.SystemRandom)

    def test_distinct_indices_give_distinct_streams(self):
        a = make_stream(11, 0).getrandbits(64)
        b = make_stream(11, 1).getrandbits(64)
        assert a != b

    def test_seed_and_index_are_not_interchangeable(self):
        # seed ^ index would make stream i of seed s stream i^1 of seed s^1
        for seed, index in ((0, 0), (1, 0), (10, 3), (2**64 - 1, 1)):
            a = make_stream(seed, index).getrandbits(64)
            b = make_stream(seed ^ 1, index ^ 1).getrandbits(64)
            assert a != b

    def test_seeded_streams_look_independent(self, uniform_p_value):
        # Sample and threshold were fixed before the first run; never re-seed to pass.
        # Seeds 0-199 x indices 0-49 at 20 digits; each chi-square statistic is
        # against the uniform distribution, and fails at a p-value below 1e-6.
        def draw(seed, index):
            rng = make_stream(seed, index)
            n = random_candidate(20, BOTH, rng).n
            return n, rng.randint(2, n - 2)  # the candidate and the first base miller_rabin draws for it

        grid = {(s, i): draw(s, i) for s in range(200) for i in range(50)}

        def candidate(key):  # from the grid, or drawn for a partner seed outside it
            return (grid[key] if key in grid else draw(*key))[0]

        samples = {f"candidate mod {m}": ([n % m for n, _ in grid.values()], m) for m in (7, 11, 13)}
        samples["first base mod 7"] = ([a % 7 for _, a in grid.values()], 7)
        neighbours = {
            "seed s, s + 1": [((s, i), (s + 1, i)) for s, i in grid if s + 1 < 200],
            "index i, i + 1": [((s, i), (s, i + 1)) for s, i in grid if i + 1 < 50],
        }
        for bit in (0, 13, 63):  # each grid seed with that bit clear, against the seed with it set
            neighbours[f"seed bit {bit}"] = [((s, i), (s | 1 << bit, i)) for s, i in grid if not s >> bit & 1]
        for name, pairs in neighbours.items():
            samples[f"joint mod 7, {name}"] = ([7 * (candidate(a) % 7) + candidate(b) % 7 for a, b in pairs], 49)
        p_values = {name: uniform_p_value(values, cells) for name, (values, cells) in samples.items()}
        assert min(p_values.values()) >= 1e-6, p_values


def _shake_draw(seed: int, index: int, counter: int, bits: int) -> int:
    """The documented layout: SHAKE-256 of seed, index and counter as 8
    little-endian bytes each; the low `bits` bits of the output read little-endian."""
    data = seed.to_bytes(8, "little") + index.to_bytes(8, "little") + counter.to_bytes(8, "little")
    return int.from_bytes(hashlib.shake_256(data).digest((bits + 7) // 8), "little") % 2**bits


class TestKeyedStream:
    @pytest.mark.parametrize("seed,index", [(0, 0), (5, 3), (MAX_SEED, MAX_SEED)])
    def test_draws_match_a_shake_256_reference(self, seed, index):
        rng = make_stream(seed, index)
        n = 24 * 10**28  # the 30-digit pool count of both filters
        assert rng.getrandbits(64) == _shake_draw(seed, index, 0, 64)
        assert rng.getrandbits(13) == _shake_draw(seed, index, 1, 13)
        assert rng.randrange(n) == _shake_draw(seed, index, 2, n.bit_length() + 64) % n
        assert rng.randint(2, 559) == 2 + _shake_draw(seed, index, 3, (558).bit_length() + 64) % 558
        assert rng.choice("abc") == "abc"[_shake_draw(seed, index, 4, (3).bit_length() + 64) % 3]

    def test_a_draw_in_the_incomplete_last_block_is_redrawn(self, monkeypatch):
        # all-ones output is r = 2^66 - 1 = 3k: r - r % 3 > 2^66 - 3, so the
        # draw below 3 takes the next counter
        class Top:
            def digest(self, size):
                return b"\xff" * size

        hashed = []

        def shake(data):
            hashed.append(data)
            return Top() if len(hashed) == 1 else hashlib.shake_256(data)

        monkeypatch.setattr(sampling, "shake_256", shake)
        rng = make_stream(7, 2)
        assert rng.randrange(3) == _shake_draw(7, 2, 1, 66) % 3
        assert [data[16:] for data in hashed] == [(0).to_bytes(8, "little"), (1).to_bytes(8, "little")]

    def test_empty_range_rejected(self):
        with pytest.raises(ValueError):
            make_stream(1).randrange(0)
