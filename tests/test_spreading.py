"""Spreading sequences: alphabet, determinism, column nesting, CSV round trips.

The golden sign pattern below was frozen from a one-off run of the published
generator contract (Philox keyed by the seed, one uniform draw per entry,
column-major assignment); the tests then hold the implementation to it.
"""

import hashlib
import math
import sys
from concurrent.futures import ThreadPoolExecutor

import hypothesis
import hypothesis.strategies as st
import numpy as np
import pytest

from cdmafusion import DimensionMismatch, InvalidParam, InvalidSpreadingMatrix, ParseError
from cdmafusion.spreading import (
    GENERATOR_ID,
    SpreadingMatrix,
    generate,
    load,
    load_csv,
    save_csv,
)

# generate(N=4, Ns=2, seed=42): signs of each chip, frozen
GOLDEN_4x2_SEED42 = np.array([[1, -1], [-1, -1], [1, -1], [-1, -1]], dtype=float)


class TestGenerate:
    def test_golden_matrix(self):
        s = generate(4, 2, seed=42)
        np.testing.assert_allclose(s.entries, GOLDEN_4x2_SEED42 / 2.0, rtol=0, atol=0)

    def test_shape_and_metadata(self):
        s = generate(8, 3, seed=5)
        assert s.entries.shape == (8, 3)
        assert (s.N, s.Ns, s.seed) == (8, 3, 5)

    def test_alphabet(self):
        s = generate(16, 7, seed=1)
        np.testing.assert_allclose(np.abs(s.entries), 0.25, rtol=0, atol=1e-15)

    def test_unit_column_norms(self):
        s = generate(33, 9, seed=2)
        norms = np.sum(s.entries**2, axis=0)
        np.testing.assert_allclose(norms, 1.0, rtol=0, atol=1e-12)

    def test_deterministic(self):
        a = generate(32, 16, seed=123)
        b = generate(32, 16, seed=123)
        np.testing.assert_array_equal(a.entries, b.entries)

    def test_seeds_differ(self):
        a = generate(32, 16, seed=123)
        b = generate(32, 16, seed=124)
        assert not np.array_equal(a.entries, b.entries)

    def test_column_nesting(self):
        # adding sensors must not disturb the columns already drawn
        base = generate(16, 5, seed=77)
        wider = generate(16, 9, seed=77)
        np.testing.assert_array_equal(wider.entries[:, :5], base.entries)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_sign_balance(self, seed):
        n, ns = 1024, 1024
        s = generate(n, ns, seed=seed)
        bound = 4.0 / math.sqrt(n * ns * n)
        assert abs(float(np.mean(s.entries))) <= bound

    @pytest.mark.parametrize(
        "N,Ns,seed",
        [(0, 2, 1), (-4, 2, 1), (4, 0, 1), (4, -2, 1), (2.5, 2, 1), (4, 2, -1),
         (4, 2, 2**64), (4, 2, 1.5)],
    )
    def test_invalid_args(self, N, Ns, seed):
        with pytest.raises(InvalidParam):
            generate(N, Ns, seed=seed)

    def test_entries_read_only(self):
        s = generate(4, 2, seed=42)
        with pytest.raises(ValueError):
            s.entries[0, 0] = 9.0



# sha256 of generate(N, Ns, seed).entries.tobytes(), frozen from the
# generator's output: any rewrite of how the signs become entries must keep
# every byte, including at N = 1, odd N and the largest seed
GOLDEN_ENTRY_SHA256 = {
    (1, 1, 0): "e77817b649821c634355a917817c1224a360514b1244fe09e832bac4e8ea4440",
    (1, 6, 3): "efb48a588147892f9efd6aa563d3e341c86a4f8e3386da5c813c24cdd76e355a",
    (7, 3, 11): "28a5fd1eb137ba6ba18571c39149c1958faf47d4b41407a768c63c677c718364",
    (8, 4, 1): "66298a9326258b089167a1e3036740b5c60d717a2a3c4a502a75558fdebb2e14",
    (16, 32, 2): "c51f7fb13e7e25a071caf4e47d18dbb0140a7b09c5318794651e194c846e00ca",
    (33, 17, 2**64 - 1): "6bc37c7f3505bbd129df0d5a80b101e68242d1c92279c78da07b6fa0f5562978",
    (128, 512, 5): "23d86f0a678118d881a011eded5bca4d87fbaa328cbd28dbb9e6d30b328f7cbb",
    (256, 512, 7): "8ac327db5459d75f4a95807ff16435e58a622d93833d3c4002236e59a0f205b5",
}


class TestGoldenBytes:
    @pytest.mark.parametrize("shape", sorted(GOLDEN_ENTRY_SHA256))
    def test_entries_sha256(self, shape):
        s = generate(*shape)
        assert s.entries.flags.c_contiguous
        assert hashlib.sha256(s.entries.tobytes()).hexdigest() == GOLDEN_ENTRY_SHA256[shape]


def uniform_sign_oracle(N, Ns, seed):
    """The generator contract read off the uniform draws, sharing no bit tricks."""
    u = np.random.Generator(np.random.Philox(key=seed)).random((Ns, N)).T
    return np.where(u >= 0.5, 1.0, -1.0) / math.sqrt(N)  # the tie u == 0.5 goes to +


class TestAgainstUniformOracle:
    @hypothesis.seed(20261018)
    @hypothesis.settings(max_examples=150, deadline=None, database=None)
    @hypothesis.example(N=1, Ns=1, seed=2**64 - 1)
    @hypothesis.example(N=64, Ns=64, seed=0)
    @hypothesis.given(
        N=st.integers(1, 64), Ns=st.integers(1, 64), seed=st.integers(0, 2**64 - 1)
    )
    def test_entries_match_byte_for_byte(self, N, Ns, seed):
        entries = generate(N, Ns, seed).entries
        assert entries.tobytes() == uniform_sign_oracle(N, Ns, seed).tobytes()

    def test_threads_draw_the_same_bytes(self):
        # each thread re-keys its own bit generator; more threads than cores
        # and a short switch interval would expose a stream shared between them
        jobs = [(N, Ns, seed) for N in (1, 7, 32) for Ns in (1, 9) for seed in range(20)]
        expected = [uniform_sign_oracle(*job).tobytes() for job in jobs]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                got = list(pool.map(lambda job: generate(*job).entries.tobytes(), jobs, timeout=60))
        finally:
            sys.setswitchinterval(interval)
        assert got == expected


class TestGenerateInto:
    SENTINEL = 7.0  # no entry +-1/sqrt(N) takes this value

    @hypothesis.seed(20261019)
    @hypothesis.settings(max_examples=120, deadline=None, database=None)
    @hypothesis.given(
        N=st.one_of(st.sampled_from([1, 4, 16, 64]), st.integers(1, 130)),
        wider=st.booleans(),
        seed=st.sampled_from([0, 2**64 - 1]),
        data=st.data(),
    )
    def test_writes_the_entries_into_one_slice_of_a_stack(self, N, wider, seed, data):
        # Ns below N (or 1 at N = 1) and above it
        Ns = data.draw(st.integers(N + 1, 2 * N + 3) if wider else st.integers(1, max(1, N - 1)), label="Ns")
        k = data.draw(st.integers(1, 4), label="k")
        slot = data.draw(st.integers(0, k - 1), label="slot")
        stack = np.full((k, N, Ns), self.SENTINEL)
        got = generate(N, Ns, seed, out=stack[slot])
        assert stack[slot].tobytes() == generate(N, Ns, seed).entries.tobytes()
        assert got.entries.tobytes() == stack[slot].tobytes()
        assert (np.delete(stack, slot, axis=0) == self.SENTINEL).all()
        assert np.shares_memory(got.entries, stack)
        assert not got.entries.flags.writeable
        with pytest.raises(ValueError):
            got.entries[0, 0] = 1.0
        assert stack.flags.writeable  # the read-only view leaves the caller's array writable

    @pytest.mark.parametrize("make, error", [
        (lambda N, Ns: np.empty((N + 1, Ns)), DimensionMismatch),
        (lambda N, Ns: np.empty((Ns, N)), DimensionMismatch),
        (lambda N, Ns: np.empty((1, N, Ns)), DimensionMismatch),
        (lambda N, Ns: [[0.0] * Ns] * N, InvalidParam),
        (lambda N, Ns: np.empty((N, Ns), np.float32), InvalidParam),
        (lambda N, Ns: np.empty((N, Ns), np.uint64), InvalidParam),
        (lambda N, Ns: np.empty((Ns, N)).T, InvalidParam),
        (lambda N, Ns: np.empty((N, 2 * Ns))[:, ::2], InvalidParam),
        (lambda N, Ns: read_only(np.empty((N, Ns))), InvalidParam),
    ], ids=["rows", "transposed-shape", "stack", "list", "float32", "uint64", "fortran-order", "strided",
            "read-only"])
    def test_rejects_an_unfit_out(self, make, error):
        with pytest.raises(error):
            generate(8, 5, 3, out=make(8, 5))


def read_only(arr):
    arr.setflags(write=False)
    return arr


class TestLoad:
    def test_accepts_trivial_matrix(self):
        s = load(np.array([[1.0]]))
        assert (s.N, s.Ns) == (1, 1)
        assert s.seed is None

    def test_roundtrips_generator_output(self):
        g = generate(16, 4, seed=3)
        s = load(np.array(g.entries), seed=3)
        np.testing.assert_array_equal(s.entries, g.entries)
        assert s.seed == 3

    @pytest.mark.parametrize("seed", [-7, 2**64, 2**80, 1.5, True])
    def test_rejects_bad_seed(self, seed):
        with pytest.raises(InvalidParam):
            load(np.array([[1.0]]), seed=seed)

    def test_rejects_off_alphabet_entry(self):
        m = np.full((4, 3), 0.5)
        m[2, 1] = 0.3
        with pytest.raises(InvalidSpreadingMatrix) as err:
            load(m)
        assert err.value.row == 2
        assert err.value.col == 1

    def test_rejects_wrong_scale(self):
        # valid +-1 alphabet but for the wrong N
        with pytest.raises(InvalidSpreadingMatrix):
            load(np.full((4, 2), 1.0 / 3.0))

    def test_rejects_bad_shape(self):
        with pytest.raises(InvalidSpreadingMatrix):
            load(np.array([0.5, -0.5]))
        with pytest.raises(InvalidSpreadingMatrix):
            load(np.zeros((0, 3)))

    def test_rejects_nonfinite(self):
        m = np.full((4, 2), 0.5)
        m[1, 0] = np.nan
        with pytest.raises(InvalidSpreadingMatrix):
            load(m)


class TestCsv:
    def test_roundtrip_exact(self, tmp_path):
        s = generate(16, 5, seed=2024)
        path = tmp_path / "codes.csv"
        save_csv(s, path)
        back = load_csv(path)
        np.testing.assert_array_equal(back.entries, s.entries)
        assert (back.N, back.Ns, back.seed) == (16, 5, 2024)

    def test_header_contents(self, tmp_path):
        s = generate(4, 2, seed=42)
        path = tmp_path / "codes.csv"
        save_csv(s, path)
        text = path.read_text()
        head = text.splitlines()[0]
        assert head.startswith("#")
        assert "N=4" in head and "Ns=2" in head and "seed=42" in head
        assert GENERATOR_ID in head
        # one data row per chip
        rows = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
        assert len(rows) == 4
        assert all(len(r.split(",")) == 2 for r in rows)

    def test_unseeded_roundtrip(self, tmp_path):
        s = load(np.full((4, 1), 0.5))
        path = tmp_path / "codes.csv"
        save_csv(s, path)
        assert "seed=none" in path.read_text().splitlines()[0]
        back = load_csv(path)
        assert back.seed is None
        np.testing.assert_array_equal(back.entries, s.entries)

    def test_headerless_body_loads(self, tmp_path):
        path = tmp_path / "bare.csv"
        path.write_text("0.5,-0.5\n-0.5,-0.5\n0.5,0.5\n-0.5,0.5\n")
        s = load_csv(path)
        assert (s.N, s.Ns) == (4, 2)
        assert s.seed is None

    def test_rejects_non_numeric(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0.5,x\n0.5,0.5\n")
        with pytest.raises(ParseError):
            load_csv(path)

    def test_rejects_ragged_rows(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("0.5,0.5\n0.5\n")
        with pytest.raises(ParseError):
            load_csv(path)

    def test_rejects_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ParseError):
            load_csv(path)

    def test_rejects_bad_seed_token(self, tmp_path):
        path = tmp_path / "hdr.csv"
        path.write_text("# N=1 Ns=1 seed=abc generator=x\n1.0\n")
        with pytest.raises(ParseError):
            load_csv(path)

    def test_rejects_out_of_range_header_seed(self, tmp_path):
        path = tmp_path / "hdr.csv"
        path.write_text("# N=1 Ns=1 seed=-7 generator=x\n1.0\n")
        with pytest.raises(InvalidParam):
            load_csv(path)

    def test_off_alphabet_body_rejected(self, tmp_path):
        path = tmp_path / "bad2.csv"
        path.write_text("0.5,0.3\n0.5,0.5\n")
        with pytest.raises(InvalidSpreadingMatrix):
            load_csv(path)


class TestSpreadingMatrixType:
    def test_frozen(self):
        s = generate(4, 2, seed=42)
        with pytest.raises(Exception):
            s.N = 8

    def test_a_stack_reports_the_size_of_each_matrix(self):
        # N and Ns are the last two axes, so a stack reports each matrix's size
        stack = SpreadingMatrix(entries=np.stack([generate(6, 5, seed=k).entries for k in range(3)]))
        assert (stack.N, stack.Ns, stack.seed) == (6, 5, None)

    def test_equality_is_identity(self):
        # == never compares the entries arrays, so it answers with a bool
        S = generate(4, 2, seed=1)
        assert S == S
        assert (generate(4, 2, seed=1) == generate(4, 2, seed=1)) is False
        assert len({S, S, generate(4, 2, seed=1)}) == 2
