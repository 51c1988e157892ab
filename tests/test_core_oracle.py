"""The index-based core against the VertexId-based versions it replaced.

``core_oracle`` keeps the parser, validator and signature that built
``VertexId`` dicts and part sets.  ``bipsym.core`` works on global indices.
On every input both must give an equal automorphism or signature, or raise
the same exception type with the same message.
"""

import itertools
import random

from hypothesis import example, given, settings
from hypothesis import strategies as st

from bipsym import (
    BipartiteAutomorphism,
    BipartiteShape,
    Part,
    VertexId,
    enumerate_automorphisms,
    parse_cycles,
    signature,
)

import core_oracle
from automorphism_ops import make_automorphism

sizes = st.integers(1, 8)


def outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:  # the exception itself is what is compared
        return type(exc), str(exc)


def assert_same(fn, oracle_fn, *args):
    got, want = outcome(fn, *args), outcome(oracle_fn, *args)
    assert got == want
    if isinstance(got, BipartiteAutomorphism):
        assert type(got.perm) is tuple and all(type(p) is int for p in got.perm)


def random_automorphism(rng: random.Random, n: int, m: int) -> BipartiteAutomorphism:
    vp, wp = rng.sample(range(n), n), rng.sample(range(m), m)
    if n == m and rng.random() < 0.5:
        perm = [n + i for i in vp] + wp
    else:
        perm = vp + [n + j for j in wp]
    return BipartiteAutomorphism(BipartiteShape(n, m), tuple(perm))


@settings(max_examples=1500, deadline=None)
@given(sizes, sizes, st.text(alphabet="vwVW0123456789(), \t١", max_size=30))
@example(3, 3, "(v١ v2)")
@example(3, 3, "(v1 w٣)")
@example(3, 3, "(v" + "9" * 5000 + ")")
@example(3, 3, "(v9 v" + "9" * 5000 + ")")  # every index of a group is read first
def test_parse_random_strings(n, m, text):
    assert_same(parse_cycles, core_oracle.parse_cycles, BipartiteShape(n, m), text)


@st.composite
def near_valid_notation(draw):
    """Cycle notation whose tokens may be zero, out of range, repeated, of
    mixed case or padded with zeros, and whose cycles may cross parts."""
    n, m = draw(sizes), draw(sizes)
    if draw(st.booleans()):
        rng = random.Random(draw(st.integers(0, 2**32)))
        text = random_automorphism(rng, n, m).cycle_string()
    else:
        token = st.builds(
            lambda part, pad, i: f"{part}{pad}{i}",
            st.sampled_from("vwVW"),
            st.sampled_from(["", "", "", "0"]),
            st.integers(0, 10),
        )
        sep = st.sampled_from([" ", " ", ",", ", ", "\t", "  "])
        groups = draw(st.lists(st.tuples(st.lists(token, max_size=6), sep), max_size=4))
        text = "".join("(" + s.join(ts) + ")" for ts, s in groups)
    if text and draw(st.booleans()):
        # replace one character, to reach the error paths from valid input
        pos = draw(st.integers(0, len(text) - 1))
        text = text[:pos] + draw(st.sampled_from("vw019 ,()")) + text[pos + 1 :]
    return BipartiteShape(n, m), text


@settings(max_examples=3000, deadline=None)
@given(near_valid_notation())
@example((BipartiteShape(3, 3), "(v1 w1)(v2 w2)(v3 w3)"))
@example((BipartiteShape(3, 4), "(v1 w1)(v2 w2)(v3 w3)"))
@example((BipartiteShape(3, 3), "(v1 w1)(v2 w2)"))
@example((BipartiteShape(3, 3), "(v1 w1 v2 w2 v3 w3)(v1)"))
def test_parse_near_valid_notation(case):
    assert_same(parse_cycles, core_oracle.parse_cycles, *case)


def test_signature_on_every_small_automorphism():
    for n, m in itertools.product(range(1, 5), repeat=2):
        for aut in enumerate_automorphisms(BipartiteShape(n, m)):
            assert signature(aut) == core_oracle.signature(aut)


def test_signature_on_random_permutations():
    rng = random.Random(20121)
    for _ in range(3000):
        n, m = rng.randint(1, 12), rng.randint(1, 12)
        aut = random_automorphism(rng, n, m)
        assert signature(aut) == core_oracle.signature(aut)


def test_signature_on_permutations_that_are_not_automorphisms():
    # cycles that visit both parts, or pure cycles under a part swap
    rng = random.Random(20122)
    for _ in range(1000):
        n, m = rng.randint(1, 12), rng.randint(1, 12)
        perm = rng.sample(range(n + m), n + m)
        aut = BipartiteAutomorphism(BipartiteShape(n, m), tuple(perm))
        assert_same(signature, core_oracle.signature, aut)


@st.composite
def damaged_mappings(draw):
    """A mapping from an automorphism, with some images removed or replaced by
    vertices that may be out of range or already used."""
    n, m = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    shape = BipartiteShape(n, m)
    aut = random_automorphism(random.Random(draw(st.integers(0, 2**32))), n, m)
    image = {v: aut(v) for v in shape.vertices()}
    keys = list(image)
    for _ in range(draw(st.integers(0, 3))):
        v = draw(st.sampled_from(keys))
        if draw(st.integers(0, 3)) == 0:
            image.pop(v, None)
        else:
            part = draw(st.sampled_from([Part.V, Part.W]))
            image[v] = VertexId(part, draw(st.integers(0, 6)))
    return shape, image


@settings(max_examples=2000, deadline=None)
@given(damaged_mappings())
def test_make_automorphism_on_damaged_mappings(case):
    assert_same(make_automorphism, core_oracle.make_automorphism, *case)
