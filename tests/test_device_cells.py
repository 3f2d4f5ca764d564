"""Cell-library tests, including the published calibration anchors."""

import math

import pytest

from repro.device import cells
from repro.device.cells import (
    CLOCK_SELF_CONTAINED_CELLS,
    ERSFQ_ENERGY_FACTOR,
    UNCLOCKED_CELLS,
    Technology,
    ersfq_library,
    library_for,
    rsfq_library,
)


@pytest.fixture(scope="module")
def lib():
    return rsfq_library()


def test_paper_and_gate_parameters(lib):
    """The Fig. 10 sample table: AND 8.3 ps / 3.6 uW / 1.4 aJ."""
    and_gate = lib[cells.AND]
    assert and_gate.delay_ps == 8.3
    assert and_gate.static_power_uw == 3.6
    assert and_gate.switch_energy_aj == 1.4


def test_paper_xor_gate_parameters(lib):
    xor_gate = lib[cells.XOR]
    assert xor_gate.delay_ps == 6.5
    assert xor_gate.static_power_uw == 3.0
    assert xor_gate.switch_energy_aj == 1.4


def test_all_cells_present(lib):
    expected = {
        cells.DFF, cells.SRCELL, cells.DFF_BYPASS, cells.NDRO, cells.AND,
        cells.OR, cells.XOR, cells.NOT, cells.TFF, cells.SPLITTER,
        cells.MERGER, cells.JTL, cells.MUX, cells.DEMUX,
    }
    assert expected == set(lib.names)


def test_unclocked_cells_have_no_setup_hold(lib):
    for name in UNCLOCKED_CELLS:
        cell = lib[name]
        assert cell.setup_ps == 0.0
        assert cell.hold_ps == 0.0
        assert not cell.is_clocked


def test_clocked_cells_have_positive_timing(lib):
    for name in lib.names:
        cell = lib[name]
        if cell.is_clocked:
            assert cell.setup_ps > 0
            assert cell.hold_ps > 0
        assert cell.delay_ps > 0


def test_ersfq_has_zero_static_power():
    ersfq = ersfq_library()
    assert all(ersfq[name].static_power_uw == 0.0 for name in ersfq.names)


def test_ersfq_doubles_switch_energy(lib):
    ersfq = ersfq_library()
    for name in lib.names:
        assert math.isclose(
            ersfq[name].switch_energy_aj,
            ERSFQ_ENERGY_FACTOR * lib[name].switch_energy_aj,
        )


def test_ersfq_keeps_timing_and_area(lib):
    """Section IV-A1: same timing and JJ count as RSFQ."""
    ersfq = ersfq_library()
    for name in lib.names:
        assert ersfq[name].delay_ps == lib[name].delay_ps
        assert ersfq[name].setup_ps == lib[name].setup_ps
        assert ersfq[name].jj_count == lib[name].jj_count


def test_library_for_dispatch():
    assert library_for(Technology.RSFQ).technology is Technology.RSFQ
    assert library_for(Technology.ERSFQ).technology is Technology.ERSFQ


def test_unknown_cell_raises(lib):
    with pytest.raises(KeyError, match="unknown SFQ cell"):
        lib["FLUXCAP"]


def test_contains_and_iter(lib):
    assert cells.DFF in lib
    assert "FLUXCAP" not in lib
    assert set(iter(lib)) == set(lib.names)


def test_static_power_aggregation(lib):
    counts = {cells.AND: 10, cells.DFF: 5}
    expected = (10 * 3.6 + 5 * lib[cells.DFF].static_power_uw) * 1e-6
    assert math.isclose(lib.static_power_w(counts), expected)


def test_area_aggregation_uses_jj_counts(lib):
    counts = {cells.JTL: 3}
    expected = 3 * 2 * lib.process.jj_area_um2
    assert math.isclose(lib.total_area_um2(counts), expected)


def test_access_energy_split_partitions_total(lib):
    counts = {cells.AND: 4, cells.SPLITTER: 7, cells.JTL: 2, cells.DFF: 1}
    clocked, wire = lib.access_energy_split_j(counts)
    assert math.isclose(clocked + wire, lib.access_energy_j(counts), rel_tol=1e-12)
    # Wire share is exactly the splitter + JTL energy.
    expected_wire = (7 * lib[cells.SPLITTER].switch_energy_aj
                     + 2 * lib[cells.JTL].switch_energy_aj) * 1e-18
    assert math.isclose(wire, expected_wire, rel_tol=1e-12)


def test_srcell_is_clock_self_contained():
    assert cells.SRCELL in CLOCK_SELF_CONTAINED_CELLS
    assert cells.DFF not in CLOCK_SELF_CONTAINED_CELLS


def test_switch_energy_physically_plausible(lib):
    """Each gate op should cost a few JJ switchings (~0.145 aJ each)."""
    from repro.device.constants import jj_switch_energy_aj

    per_jj = jj_switch_energy_aj(lib.process.bias_current_ua)
    for name in lib.names:
        cell = lib[name]
        switches = cell.switch_energy_aj / per_jj
        assert 1 <= switches <= cell.jj_count + 2


def test_library_for_shares_one_instance_per_pair():
    """Every default-library key hits one library fingerprint memo entry."""
    assert library_for(Technology.RSFQ) is library_for(Technology.RSFQ)
    assert library_for(Technology.ERSFQ) is library_for(Technology.ERSFQ)
    assert library_for(Technology.RSFQ) is not library_for(Technology.ERSFQ)
