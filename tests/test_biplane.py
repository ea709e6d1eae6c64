"""Construction, design axioms, and symmetries of the (11,5,2) biplane."""

import random

import pytest

from fnef import (
    Biplane,
    automorphism_group_order,
    automorphisms,
    build_biplane_qr,
    parse_biplane,
    verify_biplane,
)
from fnef.biplane import format_biplane, load_biplane
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
    block_set = set(qr_biplane.blocks)
    rng = random.Random(7)
    perms = list(automorphisms(qr_biplane))
    for image in rng.sample(perms, 25):
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


def test_file_round_trip(tmp_path, qr_biplane):
    path = tmp_path / "blocks.txt"
    path.write_text(format_biplane(qr_biplane))
    loaded = load_biplane(str(path))
    assert loaded == qr_biplane


def test_loader_verification_toggle(tmp_path, qr_biplane):
    blocks = list(qr_biplane.block_elements())
    blocks[0] = (1, 2, 3, 4, 5)
    text = "\n".join(" ".join(map(str, b)) for b in blocks) + "\n"
    path = tmp_path / "broken.txt"
    path.write_text(text)
    # the loader always checks the axioms; the parser alone does not
    with pytest.raises(VerificationFailedError):
        load_biplane(str(path))
    bad = parse_biplane(text)
    assert len(bad.blocks) == 11


def test_parse_rejects_garbage():
    with pytest.raises(MalformedDesignError):
        parse_biplane("only one line\n")
    with pytest.raises(MalformedDesignError):
        parse_biplane("\n".join(["1 2 3 4 99"] * 11))
    with pytest.raises(MalformedDesignError):
        parse_biplane("\n".join(["1 2 3 4 4"] * 11))
