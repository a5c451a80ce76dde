"""The central tag registry: disjoint reservations, enforced ranges.

The regression behind this module: the PR-2 SCL compiler hard-coded its
exchange tag to ``900_001`` — the same integer ``ft_bcast`` uses — so a
compiled expression run over the reliable channel could consume a
broadcast frame as user data.  The registry makes that class of bug an
import-time error, and this suite pins the global layout.
"""

from __future__ import annotations

import pytest

from repro.errors import MachineError
from repro.machine import reliable, tags

# Importing every tag-owning subsystem populates the registry.
import repro.faults.plan_exec  # noqa: F401
import repro.faults.runtime  # noqa: F401
import repro.machine.collectives_ext
import repro.machine.collectives_ft  # noqa: F401
import repro.machine.plan_exec  # noqa: F401


class TestGlobalLayout:
    def test_all_reserved_tags_are_disjoint(self):
        holders = tags.reserved()
        by_tag: dict[int, list[str]] = {}
        for name, tag in holders.items():
            by_tag.setdefault(tag, []).append(name)
        dupes = {t: ns for t, ns in by_tag.items() if len(ns) > 1}
        assert not dupes, f"tag collisions: {dupes}"

    def test_every_reservation_is_a_legal_user_tag(self):
        for name, tag in tags.reserved().items():
            assert 0 < tag < tags.MAX_USER_TAG, (name, tag)

    def test_every_reservation_sits_in_its_subsystem_range(self):
        for name, tag in tags.reserved().items():
            subsystem = name.split(".", 1)[0]
            lo, hi = tags.SUBSYSTEM_RANGES[subsystem]
            assert lo <= tag < hi, (name, tag)

    def test_subsystem_ranges_and_infra_blocks_are_disjoint(self):
        spans = sorted({**tags.SUBSYSTEM_RANGES, **tags.INFRA_BLOCKS}.items(),
                       key=lambda kv: kv[1])
        for (name_a, (_, hi_a)), (name_b, (lo_b, _)) in zip(spans, spans[1:]):
            assert hi_a <= lo_b, f"{name_a} overlaps {name_b}"

    def test_subsystem_ranges_stay_below_the_user_ceiling(self):
        for name, (lo, hi) in tags.SUBSYSTEM_RANGES.items():
            assert 0 < lo < hi <= tags.MAX_USER_TAG, name

    def test_reliable_frames_of_any_user_tag_stay_in_their_blocks(self):
        data_lo, data_hi = tags.INFRA_BLOCKS["reliable-data"]
        ack_lo, ack_hi = tags.INFRA_BLOCKS["reliable-ack"]
        for name, tag in tags.reserved().items():
            assert data_lo <= reliable.DATA_TAG_BASE + tag < data_hi, name
            assert ack_lo <= reliable.ACK_TAG_BASE + tag < ack_hi, name

    def test_reliable_reexports_the_registry_ceiling(self):
        assert reliable.MAX_USER_TAG is tags.MAX_USER_TAG

    def test_the_pr2_collision_is_fixed(self):
        # The plan executor's exchange tag and ft_bcast's tag used to both
        # be 900_001; they must now live in different subsystem ranges.
        from repro.machine.collectives_ft import _TAG_FT_BCAST
        from repro.machine.plan_exec import EXCHANGE_TAG

        assert EXCHANGE_TAG != _TAG_FT_BCAST
        assert tags.subsystem_of(EXCHANGE_TAG) == "plan"
        assert tags.subsystem_of(_TAG_FT_BCAST) == "collectives-ft"

    def test_the_ring_collectives_tags_sit_in_a_recorded_block(self):
        ext = repro.machine.collectives_ext
        for tag in (ext._TAG_RS, ext._TAG_AG, ext._TAG_PB):
            assert tags.subsystem_of(tag) == "collectives-ext", tag


class TestReserve:
    def test_reserve_returns_range_base_plus_offset(self):
        lo, _hi = tags.SUBSYSTEM_RANGES["ft-apps"]
        assert tags.reserve("ft-apps", "test-probe", 90) == lo + 90

    def test_reserve_is_idempotent_for_the_same_triple(self):
        first = tags.reserve("ft-apps", "test-probe-idem", 91)
        assert tags.reserve("ft-apps", "test-probe-idem", 91) == first

    def test_unknown_subsystem_rejected(self):
        with pytest.raises(MachineError, match="unknown tag subsystem"):
            tags.reserve("no-such-subsystem", "x", 0)

    def test_offset_outside_range_rejected(self):
        with pytest.raises(MachineError, match="out of range"):
            tags.reserve("ft-apps", "too-big", 10_000)

    def test_two_names_cannot_share_a_tag(self):
        tags.reserve("ft-apps", "test-holder", 92)
        with pytest.raises(MachineError, match="already reserved"):
            tags.reserve("ft-apps", "test-usurper", 92)

    def test_one_name_cannot_hold_two_tags(self):
        tags.reserve("ft-apps", "test-mover", 93)
        with pytest.raises(MachineError, match="already holds"):
            tags.reserve("ft-apps", "test-mover", 94)


class TestSubsystemOf:
    def test_maps_tags_to_their_owners(self):
        assert tags.subsystem_of(1) == "ft-apps"
        assert tags.subsystem_of(800_001) == "ft-runtime"
        assert tags.subsystem_of(900_001) == "collectives-ft"
        assert tags.subsystem_of(910_001) == "plan"
        assert tags.subsystem_of(2_500_000) == "reliable-data"

    def test_unowned_tags_map_to_none(self):
        assert tags.subsystem_of(0) is None
        assert tags.subsystem_of(500_000) is None
