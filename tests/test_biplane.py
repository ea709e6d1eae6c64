"""Construction, design axioms, and symmetries of the (11,5,2) biplane."""

import random
import re

import pytest

from fnef import (
    Biplane,
    automorphism_group_order,
    automorphisms,
    build_biplane_qr,
    parse_biplane,
    verify_biplane,
)
from fnef.biplane import format_biplane
from fnef.errors import MalformedDesignError, VerificationFailedError
from fnef.subsets import elements_from_mask, mask_from_elements


def test_qr_base_block_and_translate(qr_biplane):
    rows = qr_biplane.block_elements()
    assert (1, 3, 4, 5, 9) in rows
    assert (2, 4, 5, 6, 10) in rows  # the t=1 translate


def test_qr_blocks_distinct(qr_biplane):
    assert len(set(qr_biplane.blocks)) == 11


def test_design_axioms(qr_biplane):
    report = verify_biplane(qr_biplane)
    assert report.pair_replication == 2
    assert report.point_replication == 5
    assert report.block_intersections_ok


def test_broken_block_fails_with_witness(qr_biplane):
    blocks = list(qr_biplane.blocks)
    blocks[0] = mask_from_elements([1, 2, 3, 4, 5], 11)
    bad = Biplane(tuple(blocks))
    with pytest.raises(VerificationFailedError) as exc:
        verify_biplane(bad)
    assert exc.value.witness is not None


def test_malformed_designs_rejected():
    with pytest.raises(MalformedDesignError):
        Biplane((1,) * 11)  # blocks of size 1
    with pytest.raises(MalformedDesignError):
        Biplane(tuple(build_biplane_qr().blocks[:5]))  # wrong block count


def test_automorphism_order(qr_biplane):
    assert automorphism_group_order(qr_biplane) == 660


def test_identity_and_cyclic_shift_are_automorphisms(qr_biplane):
    perms = list(automorphisms(qr_biplane))
    assert len(perms) == 660
    assert tuple(range(11)) in perms  # identity (0-based images)
    shift = tuple((i + 1) % 11 for i in range(11))
    assert shift in perms
    assert 660 % 11 == 0


def test_sampled_automorphisms_permute_blocks(qr_biplane):
    # every map of the search, not a sample: the search itself keeps only
    # maps whose block images lie in blocks
    block_set = set(qr_biplane.blocks)
    perms = list(automorphisms(qr_biplane))
    assert len(perms) == 660
    for image in perms:
        mapped = set()
        for b in qr_biplane.blocks:
            m = 0
            for e in elements_from_mask(b):
                m |= 1 << image[e - 1]
            mapped.add(m)
        assert mapped == block_set


def test_relabeled_biplane_still_has_order_660(qr_biplane):
    # uniqueness sanity: any verified biplane read back has the same symmetry count
    rng = random.Random(3)
    relabel = list(range(1, 12))
    rng.shuffle(relabel)
    blocks = []
    for row in qr_biplane.block_elements():
        blocks.append(mask_from_elements([relabel[e - 1] for e in row], 11))
    moved = Biplane(tuple(blocks))
    verify_biplane(moved)
    assert automorphism_group_order(moved) == 660


def test_file_round_trip(qr_biplane):
    loaded = parse_biplane(format_biplane(qr_biplane))
    verify_biplane(loaded)
    assert loaded == qr_biplane


def test_loader_verification_toggle(qr_biplane):
    blocks = list(qr_biplane.block_elements())
    blocks[0] = (1, 2, 3, 4, 5)
    text = "\n".join(" ".join(map(str, b)) for b in blocks) + "\n"
    # the parser alone does not check the axioms; verify_biplane, which the
    # CLI runs on every block file, does
    bad = parse_biplane(text)
    assert len(bad.blocks) == 11
    with pytest.raises(VerificationFailedError):
        verify_biplane(bad)


def test_block_with_a_point_outside_the_ground_set_is_refused(qr_biplane):
    blocks = (qr_biplane.blocks[0] | 1 << 11, *qr_biplane.blocks[1:])
    with pytest.raises(MalformedDesignError, match="^block contains a point outside 1..11$"):
        Biplane(blocks)


@pytest.mark.parametrize("token", ["x", "1_0", "\uff11", "2.0"])
def test_parse_refuses_a_token_that_is_not_an_integer(qr_biplane, token):
    lines = format_biplane(qr_biplane).splitlines()
    lines[3] = f"1 4 6 7 {token}"
    message = f"bad block line '1 4 6 7 {token}': invalid integer '{token}'"
    with pytest.raises(MalformedDesignError, match=f"^{re.escape(message)}$"):
        parse_biplane("\n".join(lines))


def test_parse_rejects_garbage():
    with pytest.raises(MalformedDesignError):
        parse_biplane("only one line\n")
    with pytest.raises(MalformedDesignError):
        parse_biplane("\n".join(["1 2 3 4 99"] * 11))
    with pytest.raises(MalformedDesignError):
        parse_biplane("\n".join(["1 2 3 4 4"] * 11))
