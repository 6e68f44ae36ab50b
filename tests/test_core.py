import itertools
import os
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import skewlab as sl
from conftest import (
    brute_has_skew_corner,
    peak_memory,
    rand_grid_set,
    rand_torus_set,
    reference_dumps,
    reference_loads,
    wide_sparse_grid_set,
)


def test_make_grid_set_singleton():
    a = sl.make_grid_set([(1, 1)], sl.grid(2))
    assert len(a) == 1
    assert (1, 1) in a


def test_make_grid_set_dedup():
    a = sl.make_grid_set([(1, 1), (1, 1)], sl.grid(2))
    assert len(a) == 1


def test_make_grid_set_range_error_names_point():
    with pytest.raises(sl.CoordinateError, match=r"\(0, 7\)"):
        sl.make_grid_set([(0, 7)], sl.torus(6))
    with pytest.raises(sl.CoordinateError):
        sl.make_grid_set([(0, 1)], sl.grid(3))  # grid is 1-based


def test_column_access_and_sizes():
    a = sl.make_grid_set([(2, 5), (2, 1), (4, 3)], sl.grid(5))
    assert a.column(2) == (1, 5)
    assert a.column(1) == ()
    assert list(a.column_sizes()) == [0, 2, 0, 1, 0]
    assert list(a.points()) == [(2, 1), (2, 5), (4, 3)]


def test_column_outside_the_ambient_is_refused():
    a = sl.make_grid_set([(1, 1), (3, 2), (3, 3)], sl.grid(3))
    assert a.column(3) == (2, 3)
    for x in (-1, 0, 4):
        with pytest.raises(sl.CoordinateError, match=rf"column {x} outside grid 3"):
            a.column(x)
    t = sl.make_grid_set([(0, 0), (2, 1)], sl.torus(3))
    assert t.column(0) == (0,) and t.column(2) == (1,)
    for x in (-1, 3):
        with pytest.raises(sl.CoordinateError, match=rf"column {x} outside torus 3"):
            t.column(x)


def test_embed_torus_identity_on_coordinates():
    a = sl.make_grid_set([(1, 1)], sl.grid(2))
    e = sl.embed_torus(a)
    assert e.ambient == sl.torus(4)
    assert list(e.points()) == [(1, 1)]
    assert sl.embed_torus(e) is e
    # the torus side has one definition, on the ambient, and the embedding
    # lands on it
    assert sl.grid(5).torus_side == 10 and sl.torus(5).torus_side == 5
    for s in (a, e):
        assert sl.embed_torus(s).ambient.size == s.ambient.torus_side


def test_ambient_side_limit(monkeypatch):
    assert sl.grid(sl.ambient.MAX_SIDE).size == 1 << 27
    with pytest.raises(sl.CapabilityError, match="exceeds the limit"):
        sl.torus(sl.ambient.MAX_SIDE + 1)
    # the embedding doubles the side, so it is refused past half the limit
    monkeypatch.setattr("skewlab.ambient.MAX_SIDE", 16)
    sl.embed_torus(sl.make_grid_set([(1, 1)], sl.grid(8)))
    with pytest.raises(sl.CapabilityError):
        sl.embed_torus(sl.make_grid_set([(1, 1)], sl.grid(9)))


def test_embed_torus_preserves_freeness_both_ways_exhaustive():
    # all subsets of [2]^2 and [3]^2: grid-free iff torus-image free
    for n in (2, 3):
        cells = [(x, y) for x in range(1, n + 1) for y in range(1, n + 1)]
        for r in range(len(cells) + 1):
            for combo in itertools.combinations(cells, r):
                a = sl.make_grid_set(list(combo), sl.grid(n))
                grid_free = sl.find_skew_corner(a) is None
                torus_free = sl.find_skew_corner(sl.embed_torus(a)) is None
                assert grid_free == torus_free


def test_translate_identity_and_singleton():
    a = sl.make_grid_set([(0, 0)], sl.torus(6))
    assert sl.translate(a, 0, 0) == a
    moved = sl.translate(a, 1, {0: 2})
    assert list(moved.points()) == [(1, 2)]


def test_translate_requires_torus():
    with pytest.raises(sl.ParameterError):
        sl.translate(sl.make_grid_set([(1, 1)], sl.grid(2)), 1, 0)


def test_translate_preserves_nontrivial_tuple_count():
    rng = np.random.default_rng(42)
    for _ in range(10):
        a = rand_torus_set(rng, 8, 0.4)
        h = int(rng.integers(0, 8))
        v = {i: int(rng.integers(0, 8)) for i in range(8)}
        before = sl.count_skew_corners_naive(a)
        after = sl.count_skew_corners_naive(sl.translate(a, h, v))
        assert before == after


def test_translate_tuple_count_against_quadruple_loop():
    from conftest import brute_skew_tuples

    rng = np.random.default_rng(43)
    a = rand_torus_set(rng, 6, 0.4)
    moved = sl.translate(a, 2, {i: int(rng.integers(0, 6)) for i in range(6)})
    assert brute_skew_tuples(a) == brute_skew_tuples(moved)


def test_coordinates_follow_points():
    for a in (
        sl.make_grid_set([(3, 1), (1, 2), (3, 3)], sl.grid(4)),
        sl.make_grid_set([(0, 5), (4, 0), (0, 0)], sl.torus(6)),
        sl.make_grid_set([], sl.grid(2)),
    ):
        xs, ys = a.coordinates()
        assert xs.dtype == ys.dtype == np.int64
        assert list(zip(xs.tolist(), ys.tolist())) == list(a.points())


def test_occupied_columns_are_the_nonzero_column_sizes():
    """On grids and tori: the empty set, sets with empty first and last
    columns, a full column, and seeded sets of many densities."""
    rng = np.random.default_rng(38)
    sets = [sl.make_grid_set([], amb) for amb in (sl.grid(1), sl.grid(5), sl.torus(6))]
    sets += [
        sl.make_grid_set([(2, 1), (2, 4), (4, 3)], sl.grid(5)),
        sl.make_grid_set([(1, 0), (3, 2)], sl.torus(5)),
        sl.make_grid_set([(5, y) for y in range(1, 6)] + [(1, 2)], sl.grid(5)),
        sl.make_grid_set([(0, y) for y in range(6)], sl.torus(6)),
        sl.make_grid_set([(1, 1)], sl.grid(1)),
    ]
    for _ in range(100):
        side, density = int(rng.integers(1, 40)), float(rng.random()) ** 2
        sets += [rand_grid_set(rng, side, density), rand_torus_set(rng, side, density)]
    for a in sets:
        sizes = a.column_sizes()
        i, k = a.occupied_columns()
        assert i.dtype == k.dtype == np.int64, a
        assert np.array_equal(i, np.flatnonzero(sizes)), a
        assert np.array_equal(k, sizes[i]), a


def test_coordinates_of_a_wide_grid_set_are_set_sized():
    """About 6000 points in the grid of side 2^20: xs is built from the
    nonempty columns, with one byte per column for their mask, where an
    x for every column and its size took 16 MiB."""
    n = 1 << 20
    a, cols = wide_sparse_grid_set(n, 6)
    with peak_memory() as peak:
        xs, ys = a.coordinates()
    assert list(zip(xs.tolist(), ys.tolist())) == [(x, y) for x in sorted(cols) for y in cols[x]]
    assert peak.bytes <= 2 * a.ys.nbytes + n


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_key_builds_match_a_set_model(data):
    # from_arrays, transpose and translate build their keys in place;
    # repeats, size 1 and empty input included
    kind = data.draw(st.sampled_from(["grid", "torus"]))
    amb = sl.Ambient(kind, data.draw(st.sampled_from([1, 2, 5, 7])))
    coord = st.integers(amb.lo, amb.hi)
    pts = data.draw(st.lists(st.tuples(coord, coord), max_size=30))
    xs = np.array([x for x, _ in pts], dtype=np.int64)
    ys = np.array([y for _, y in pts], dtype=np.int64)
    model = set(pts)
    a = sl.GridSet.from_arrays(xs, ys, amb)
    assert list(a.points()) == sorted(model)
    assert list(sl.transpose(a).points()) == sorted((y, x) for x, y in model)
    if kind == "torus":
        N = amb.size
        h = data.draw(st.integers(-2 * N, 2 * N))
        v = data.draw(st.lists(st.integers(-2 * N, 2 * N), min_size=N, max_size=N))
        moved = {((x + h) % N, (y + v[x]) % N) for x, y in model}
        assert list(sl.translate(a, h, v).points()) == sorted(moved)


def test_transpose_examples():
    a = sl.make_grid_set([(1, 2)], sl.grid(3))
    assert list(sl.transpose(a).points()) == [(2, 1)]


@settings(max_examples=50, deadline=None)
@given(st.sets(st.tuples(st.integers(0, 5), st.integers(0, 5)), max_size=20))
def test_transpose_involution_and_size(pts):
    a = sl.make_grid_set(list(pts), sl.torus(6))
    t = sl.transpose(a)
    assert len(t) == len(a)
    assert sl.transpose(t) == a


@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from([sl.grid(5), sl.torus(6)]),
    st.lists(st.tuples(st.integers(-1, 6), st.integers(-1, 6)), max_size=30),
)
def test_grid_set_matches_set_model(amb, pts):
    pts = [p for p in pts if amb.in_range(p[0]) and amb.in_range(p[1])]
    model = set(pts)
    a = sl.make_grid_set(pts, amb)
    assert len(a) == len(model)
    assert list(a.points()) == sorted(model)
    assert all(type(v) is int for p in a.points() for v in p)
    sizes = a.column_sizes()
    assert sizes.dtype == np.int64
    for x in range(amb.lo, amb.hi + 1):
        col = tuple(sorted(y for u, y in model if u == x))
        assert a.column(x) == col
        assert sizes[x - amb.lo] == len(col)
    for p in itertools.product(range(-1, 8), repeat=2):
        assert (p in a) == (p in model)
    same = sl.make_grid_set(list(reversed(pts)) * 2, amb)
    assert same == a and hash(same) == hash(a)
    assert sl.loads_skewset(sl.dumps_skewset(a)) == a
    other = sl.make_grid_set(list(model ^ {(amb.lo, amb.lo)}), amb)
    assert other != a
    assert not a.offsets.flags.writeable and not a.ys.flags.writeable


def test_skewset_roundtrip(tmp_path, eight_point_set):
    path = tmp_path / "set.txt"
    sl.save_skewset(eight_point_set, path)
    again = sl.load_skewset(path)
    assert again == eight_point_set
    text = path.read_text()
    assert text.startswith("skewset 1\nambient torus 6\n")


def test_skewset_rejects_bad_input():
    with pytest.raises(sl.FormatError):
        sl.loads_skewset("not a skewset\n")
    with pytest.raises(sl.FormatError):
        sl.loads_skewset("skewset 1\nambient ring 6\n")
    with pytest.raises(sl.FormatError, match="duplicate"):
        sl.loads_skewset("skewset 1\nambient torus 6\n1 1\n1 1\n")
    with pytest.raises(sl.CoordinateError):
        sl.loads_skewset("skewset 1\nambient torus 6\n0 7\n")
    with pytest.raises(sl.CoordinateError):
        sl.loads_skewset("skewset 1\nambient grid 6\n0 3\n")


def _outcome(parse, text):
    try:
        return parse(text)
    except sl.SkewLabError as exc:
        return type(exc), str(exc)


@st.composite
def noisy_skewset_text(draw):
    """A dumped small set, maybe with a repeated point line, rewritten with
    blank lines (also before the header), LF, CRLF and lone CR line ends,
    tab and space separators, padding and '+' signs."""
    kind = draw(st.sampled_from(["grid", "torus"]))
    size = draw(st.integers(1, 8))
    lo = 1 if kind == "grid" else 0
    coord = st.integers(lo, lo + size - 1)
    pts = draw(st.lists(st.tuples(coord, coord), max_size=12, unique=True))
    lines = sl.dumps_skewset(sl.make_grid_set(pts, sl.Ambient(kind, size))).split("\n")[:-1]
    if len(lines) > 2 and draw(st.booleans()):
        lines.append(draw(st.sampled_from(lines[2:])))
    space = st.sampled_from([" ", "\t", "  ", " \t "])
    pad = st.sampled_from(["", " ", "\t", " \t"])
    out = []
    for i, line in enumerate(lines):
        for _ in range(draw(st.integers(0, 2))):
            out.append(draw(pad))
        toks = line.split(" ")
        if i >= 2:
            toks = [("+" if draw(st.booleans()) else "") + t for t in toks]
        sep = " " if i == 0 else draw(space)
        out.append(draw(pad) + sep.join(toks) + draw(pad))
    ends = st.sampled_from(["\n", "\r\n", "\r"])
    return "".join(line + draw(ends) for line in out)


# reader block sizes: a few bytes cut through lines, CRLF pairs and the
# header, and the default, which reads a small input in one block
READ_CHUNKS = (1, 2, 3, 5, 8, 1 << 20)


def _read_outcomes(text, path):
    """(block size, reader, outcome) of `loads_skewset(text)` and of
    `load_skewset` on the text's UTF-8 bytes, at every size in READ_CHUNKS."""
    path.write_bytes(text.encode("utf-8", "surrogatepass"))
    with pytest.MonkeyPatch.context() as mp:
        for chunk in READ_CHUNKS:
            mp.setattr("skewlab.core._READ_CHUNK", chunk)
            yield chunk, "loads", _outcome(sl.loads_skewset, text)
            yield chunk, "load", _outcome(sl.load_skewset, path)


@settings(max_examples=150, deadline=None)
@given(noisy_skewset_text())
def test_loads_matches_the_line_parser_on_noisy_text(tmp_path_factory, text):
    want = _outcome(reference_loads, text)
    path = tmp_path_factory.mktemp("r") / "set.txt"
    for chunk, reader, got in _read_outcomes(text, path):
        assert got == want, (chunk, reader)


H6 = "skewset 1\nambient torus 6\n"


@pytest.mark.parametrize(
    "text",
    [
        H6 + "1\n",
        H6 + "1 2 3\n",
        H6 + "a b\n",
        H6 + "1.0 2\n",
        H6 + "1e3 2\n",
        H6 + "0 7\n",
        H6 + "1 2\n99999999999999999999 1\n",
        H6 + "1 1\n2 2\n1 1\n",
        H6 + "0 9\n1 1\n1 1\n4 x\n",
        H6 + "1 1\n1 1\n0 9\n",
        H6 + "3 3\n1 1\n3 3\n1 1\n",
        "ambient torus 6\n1 1\n",
        "\n \nskewset 1\n",
        "skewset 1\nambient ring 6\n",
        "skewset 1\nambient grid x\n",
    ],
)
def test_loads_errors_match_the_line_parser(tmp_path, text):
    want_type, want_msg = _outcome(reference_loads, text)
    for chunk, reader, got in _read_outcomes(text, tmp_path / "set.txt"):
        assert got == (want_type, want_msg), (chunk, reader)


@pytest.mark.parametrize("token", ["1_0", "\u0661", "0x1", "1\xa0", "1\x0b"])
def test_loads_refuses_tokens_outside_the_grammar(token):
    # int() and str.split() read these; the token grammar (a sign and ASCII
    # digits, separated by spaces or tabs) does not
    with pytest.raises(sl.FormatError, match="bad point line"):
        sl.loads_skewset(H6 + f"{token} 2\n")


def test_reader_reads_cr_only_and_cut_crlf_files(tmp_path, monkeypatch):
    pts = [(0, 1), (2, 3), (5, 5), (1, 0)]
    want = sl.make_grid_set(pts, sl.torus(6))
    lines = ["skewset 1", "ambient torus 6"] + [f"{x} {y}" for x, y in pts]
    path = tmp_path / "set.txt"
    for end in ("\r", "\r\n"):
        raw = "".join(line + end for line in lines).encode()
        path.write_bytes(raw)
        # every block size up to the file's, so that some block ends
        # between the CR and the LF of each CRLF pair
        for chunk in range(1, len(raw) + 1):
            monkeypatch.setattr("skewlab.core._READ_CHUNK", chunk)
            assert sl.load_skewset(path) == want, (end, chunk)


def test_reader_names_a_byte_that_is_not_utf8(tmp_path, monkeypatch):
    raw = H6.encode() + b"1 2\n3 \xff4\n\xc3\n"
    want = _outcome(reference_loads, raw.decode("utf-8", "replace"))
    assert want == (sl.FormatError, "bad point line '3 \ufffd4'")
    path = tmp_path / "set.txt"
    path.write_bytes(raw)
    for chunk in (1, 4, 1 << 20):
        monkeypatch.setattr("skewlab.core._READ_CHUNK", chunk)
        assert _outcome(sl.load_skewset, path) == want


@pytest.mark.parametrize("where", ["first", "middle", "last"])
def test_reader_names_the_first_error_in_any_block(tmp_path, monkeypatch, where):
    # 400 point lines in blocks of 64 bytes; each error goes in one block,
    # behind an outside point and a repeat in earlier or later blocks
    a = rand_torus_set(np.random.default_rng(11), 40, 0.25)
    lines = sl.dumps_skewset(a).splitlines()[2:]
    at = {"first": 0, "middle": len(lines) // 2, "last": len(lines)}[where]
    variants = {
        "bad line": lines[:at] + ["7 x"] + lines[at:],
        "outside": lines[:at] + ["3 40"] + lines[at:] + ["40 3"],
        "repeats": lines[:at] + [lines[-1]] + lines[at:] + [lines[0]],
        "bad after outside": ["3 40"] + lines[:at] + ["7 x"] + lines[at:],
        "outside after repeat": [lines[0]] + lines[:at] + ["-1 3"] + lines[at:],
    }
    monkeypatch.setattr("skewlab.core._READ_CHUNK", 64)
    path = tmp_path / "set.txt"
    for name, body in variants.items():
        text = "skewset 1\nambient torus 40\n" + "\n".join(body) + "\n"
        want = _outcome(reference_loads, text)
        assert isinstance(want, tuple), name
        path.write_text(text)
        assert _outcome(sl.loads_skewset, text) == want, name
        assert _outcome(sl.load_skewset, path) == want, name


def test_reader_names_a_repeat_in_a_pipe():
    # a pipe cannot be read a second time to find the first repeat, (3, 3);
    # the smallest one is named instead
    r, w = os.pipe()
    try:
        os.write(w, (H6 + "3 3\n1 1\n3 3\n1 1\n").encode())
        os.close(w)
        with pytest.raises(sl.FormatError, match=r"^duplicate point \(1, 1\)$"):
            sl.load_skewset(f"/dev/fd/{r}")
    finally:
        os.close(r)


def _shuffled_text(a: sl.GridSet, seed: int) -> tuple[str, list[str]]:
    """The skewset text of `a` with its point lines in a seeded random
    order, and those lines."""
    lines = sl.dumps_skewset(a).splitlines()
    body = lines[2:]
    np.random.default_rng(seed).shuffle(body)
    return "\n".join(lines[:2] + body) + "\n", body


def test_reader_grows_one_key_array_across_many_blocks(tmp_path, monkeypatch):
    # about 20 000 points in 4 KiB blocks: dozens of blocks and growth
    # steps, with the points out of order
    a = rand_torus_set(np.random.default_rng(13), 200, 0.5)
    text, body = _shuffled_text(a, 13)
    monkeypatch.setattr("skewlab.core._READ_CHUNK", 4096)
    path = tmp_path / "set.txt"
    path.write_text(text)
    for got in (sl.load_skewset(path), sl.loads_skewset(text)):
        assert got == a
        # the parsed keys became the set's ys without a copy
        assert got.ys.flags.owndata and got.ys.base is None
    head = "skewset 1\nambient torus 200\n"
    variants = {
        "repeat": body + [body[len(body) // 2]],
        "bad line": body + ["1 2 3"],
        "outside": body + ["5 200"],
        "outside then repeat": body[:100] + ["200 5"] + body + [body[0]],
    }
    for name, lines in variants.items():
        text = head + "\n".join(lines) + "\n"
        path.write_text(text)
        want = _outcome(reference_loads, text)
        assert isinstance(want, tuple), name
        assert _outcome(sl.load_skewset, path) == want, name
        assert _outcome(sl.loads_skewset, text) == want, name


def test_reader_loads_a_pipe_across_blocks(monkeypatch):
    # a pipe cannot seek; its blocks are read once, in 4 KiB pieces
    a = rand_torus_set(np.random.default_rng(17), 150, 0.3)
    raw = _shuffled_text(a, 17)[0].encode()
    monkeypatch.setattr("skewlab.core._READ_CHUNK", 4096)
    r, w = os.pipe()
    writer = threading.Thread(target=lambda: (os.write(w, raw), os.close(w)))
    writer.start()
    try:
        assert sl.load_skewset(f"/dev/fd/{r}") == a
    finally:
        writer.join(timeout=10)
        os.close(r)
    assert not writer.is_alive()


def test_reader_max_points_boundary(tmp_path, monkeypatch):
    a = rand_torus_set(np.random.default_rng(19), 60, 0.5)
    path = tmp_path / "set.txt"
    sl.save_skewset(a, path)
    monkeypatch.setattr("skewlab.core._READ_CHUNK", 512)
    monkeypatch.setattr("skewlab.core.MAX_POINTS", len(a))
    assert sl.load_skewset(path) == a
    monkeypatch.setattr("skewlab.core.MAX_POINTS", len(a) - 1)
    with pytest.raises(sl.CapabilityError, match=f"more than {len(a) - 1} points"):
        sl.load_skewset(path)


def test_reader_refuses_more_than_max_points_before_building(tmp_path, monkeypatch):
    # the 9^6 product in [46656]^2, 531 441 points in 5.4 MB, whose full
    # read traces about 9.5 MiB; a limit of 1000 points stops the read
    # after its first block of 64 KiB
    path = tmp_path / "p.txt"
    sl.save_skewset(sl.product_construction(sl.find_base_set(6), 46656), path)
    monkeypatch.setattr("skewlab.core.MAX_POINTS", 1000)
    monkeypatch.setattr("skewlab.core._READ_CHUNK", 1 << 16)
    with peak_memory() as peak:
        with pytest.raises(sl.CapabilityError, match="more than 1000 points"):
            sl.load_skewset(path)
    assert peak.bytes <= 2**20


@st.composite
def writer_sets(draw):
    """Small sets in both ambients, empty ones included, whose coordinates
    favour lo, hi and the digit-count boundaries 9/10, 99/100 and 2^20."""
    kind = draw(st.sampled_from(["grid", "torus"]))
    size = draw(st.sampled_from([1, 2, 9, 10, 11, 99, 100, 101, 2**20, 2**20 + 1]))
    amb = sl.Ambient(kind, size)
    edges = [v for v in (9, 10, 99, 100, 2**20) if amb.in_range(v)]
    coord = st.one_of(
        st.sampled_from([amb.lo, amb.hi, *edges]), st.integers(amb.lo, amb.hi)
    )
    pts = draw(st.lists(st.tuples(coord, coord), max_size=20))
    return sl.make_grid_set(pts, amb)


@settings(max_examples=200, deadline=None)
@given(writer_sets())
def test_writer_matches_the_reference_bytes(tmp_path_factory, a):
    want = reference_dumps(a)
    assert sl.dumps_skewset(a) == want
    path = tmp_path_factory.mktemp("w") / "set.txt"
    sl.save_skewset(a, path)
    assert path.read_bytes() == want.encode()


def test_writer_streams_across_chunks(tmp_path, monkeypatch):
    # chunks of 7 points cut through columns and change the digit count
    monkeypatch.setattr("skewlab.core._WRITE_CHUNK", 7)
    a = rand_torus_set(np.random.default_rng(5), 120, 0.05)
    want = reference_dumps(a)
    assert sl.dumps_skewset(a) == want
    sl.save_skewset(a, tmp_path / "set.txt")
    assert (tmp_path / "set.txt").read_bytes() == want.encode()


def test_save_memory_stays_flat_in_the_set_size(tmp_path):
    # the 9^6 product in [46656]^2, 531 441 points; one f-string per point
    # traced 75 MiB here
    a = sl.product_construction(sl.find_base_set(6), 46656)
    path = tmp_path / "p.txt"
    with peak_memory() as peak:
        sl.save_skewset(a, path)
    assert peak.bytes <= 16 * 2**20
    assert path.read_bytes() == reference_dumps(a).encode()


def test_load_memory_stays_near_one_copy_of_the_set(tmp_path):
    # the 9^6 product file, 5.4 MB for 531 441 points (4.3 MB as int64);
    # reading the whole file as text traced 47 MiB, and keeping each
    # block's keys until one concatenation traced 9.5 MiB
    a = sl.product_construction(sl.find_base_set(6), 46656)
    path = tmp_path / "p.txt"
    sl.save_skewset(a, path)
    with peak_memory() as peak:
        assert sl.load_skewset(path) == a
    assert peak.bytes <= a.ys.nbytes + a.offsets.nbytes + 3 * 2**20


def test_loads_memory_stays_near_the_text_size():
    # 2 * 10^5 points of the torus 1024, 1.4 MB of text
    cells = np.random.default_rng(31).choice(1024**2, 200_000, replace=False)
    a = sl.GridSet.from_arrays(*np.divmod(cells, 1024), sl.torus(1024))
    text = sl.dumps_skewset(a)
    with peak_memory() as peak:
        assert sl.loads_skewset(text) == a
    assert peak.bytes < 20 * 2**20


def test_from_arrays_in_a_wide_grid_allocates_one_offsets_array():
    # 2 * 10^5 points in the grid 2^20: the size + 1 offsets (8 MiB) are
    # built once and kept without a copy
    n = 2**20
    rng = np.random.default_rng(37)
    xs, ys = rng.integers(1, n + 1, (2, 200_000))
    with peak_memory() as peak:
        a = sl.GridSet.from_arrays(xs, ys, sl.grid(n))
    assert peak.bytes <= 17 * 2**20
    assert len(a) == len(set(zip(xs.tolist(), ys.tolist())))
    assert a.offsets[0] == 0 and a.offsets.size == n + 1
    assert not a.offsets.flags.writeable and not a.ys.flags.writeable


def test_grid_set_copies_arrays_a_caller_can_still_write():
    offsets = np.array([0, 1, 2], dtype=np.int64)
    ys = np.array([1, 2], dtype=np.int64)
    a = sl.GridSet(sl.grid(2), offsets, ys)
    ys[0] = 2
    assert list(a.points()) == [(1, 1), (2, 2)]
    view = np.array([0, 9, 1, 9, 2], dtype=np.int64)[::2]
    view.setflags(write=False)
    assert sl.GridSet(sl.grid(2), view, a.ys).offsets is not view


def test_grid_set_immutable_value_semantics():
    a = sl.make_grid_set([(1, 1), (2, 2)], sl.grid(2))
    b = sl.make_grid_set([(2, 2), (1, 1), (1, 1)], sl.grid(2))
    assert a == b


def test_translate_freeness_invariance_spot(eight_point_set):
    rng = np.random.default_rng(3)
    for _ in range(5):
        h = int(rng.integers(0, 6))
        v = {i: int(rng.integers(0, 6)) for i in range(6)}
        moved = sl.translate(eight_point_set, h, v)
        assert sl.find_skew_corner(moved) is None
        assert not brute_has_skew_corner(moved)
