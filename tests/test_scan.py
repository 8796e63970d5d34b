import re
from pathlib import Path

import numpy as np
import pytest

import spt_z2 as sz
from spt_z2.linalg import frob
from spt_z2.mps import channel_residual


# -- zoo ----------------------------------------------------------------------

def test_zoo_aklt_is_normalized():
    raw = sz.zoo("aklt")
    assert raw.shape == (3, 2, 2)
    assert channel_residual(sz.as_mps(raw)) < 1e-12


def test_zoo_product_normalizes_amplitudes():
    raw = sz.zoo("product:3,4")
    assert raw.shape == (2, 1, 1)
    assert abs(raw[0, 0, 0] - 0.6) < 1e-12
    assert abs(raw[1, 0, 0] - 0.8) < 1e-12


def test_zoo_product_rejections():
    with pytest.raises(sz.UnknownModel):
        sz.zoo("product:1")
    with pytest.raises(sz.UnknownModel):
        sz.zoo("product:0,0")


def test_zoo_breaker_is_renormalized(aklt_raw):
    raw = sz.zoo("aklt-breaker:0.05")
    assert channel_residual(sz.as_mps(raw)) < 1e-9
    assert frob(raw - aklt_raw) > 0.01
    assert np.allclose(sz.zoo("aklt-breaker:0"), aklt_raw, atol=1e-12)


def test_zoo_name_errors():
    with pytest.raises(sz.UnknownModel):
        sz.zoo("nope")
    with pytest.raises(sz.UnknownModel):
        sz.zoo("aklt:1")
    with pytest.raises(sz.UnknownModel):
        sz.zoo("deformed-aklt")
    with pytest.raises(sz.UnknownModel):
        sz.zoo("deformed-aklt:1+2i")
    with pytest.raises(sz.UnknownModel):
        sz.zoo("deformed-aklt:")


def test_complex_literal_arguments():
    raw = sz.zoo("product:1+2i,0.8i")
    amps = np.array([1.0 + 2.0j, 0.8j])
    amps = amps / np.linalg.norm(amps)
    assert np.allclose(raw[:, 0, 0], amps, atol=1e-12)


def test_models_registry():
    assert set(sz.MODELS) == {
        "aklt", "ghz", "product", "deformed-aklt", "aklt-breaker",
    }
    for meta in sz.MODELS.values():
        assert isinstance(meta.description, str)


def test_readme_model_zoo_table_is_the_registry():
    # the table names exactly the keys of MODELS, with their argument counts and descriptions
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("### Model zoo", 1)[1].split("\n#", 1)[0]
    rows = re.findall(r"^\| `([^`:]+)[^`]*` +\| +(-?\d+) +\| (.+?) \|$", section,
                      flags=re.MULTILINE)
    assert sorted(name for name, _, _ in rows) == sorted(sz.MODELS)
    assert len(rows) == len(sz.MODELS)
    for name, parameters, description in rows:
        entry = sz.MODELS[name]
        assert (int(parameters), description) == (entry.parameters, entry.description)


# -- families -----------------------------------------------------------------

def test_family_default_ranges():
    deformed = sz.family("deformed-aklt")
    assert (deformed.s0, deformed.s1, deformed.grid) == (0.0, 1.0, 11)
    breaker = sz.family("aklt-breaker")
    assert (breaker.s0, breaker.s1) == (0.0, 0.5)
    assert frob(deformed.generator(0.0) - sz.zoo("aklt")) < 1e-12


@pytest.mark.parametrize("name", [n for n, e in sz.MODELS.items() if e.family_range])
def test_family_reads_its_registry_entry(name):
    fam = sz.family(name)
    assert (fam.s0, fam.s1) == sz.MODELS[name].family_range
    for s in (fam.s0, 0.5 * (fam.s0 + fam.s1), 0.3):
        got, want = fam.generator(s), sz.zoo(f"{name}:{s}")
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_family_constant_from_point_model():
    fam = sz.family("product:1,0")
    assert frob(fam.generator(0.3) - fam.generator(0.9)) == 0.0
    pinned = sz.family("deformed-aklt:0.5")
    assert frob(pinned.generator(0.1) - sz.zoo("deformed-aklt:0.5")) < 1e-12


def test_family_validation():
    with pytest.raises(sz.UnknownModel):
        sz.family("nope")
    with pytest.raises(sz.UnknownModel):
        sz.family("aklt", grid=1)


# -- scans --------------------------------------------------------------------

def test_scan_refuses_a_grid_above_the_cap():
    with pytest.raises(sz.ResourceLimit):
        sz.scan(sz.family("deformed-aklt", grid=3), config=sz.Config(scan_cap=2))
    assert len(sz.scan(sz.family("deformed-aklt", grid=2), config=sz.Config(scan_cap=2)).points) == 2


def test_scan_breaker_first_failure():
    rep = sz.scan(sz.family("aklt-breaker", 0.0, 0.2, 5))
    assert [round(p.s, 4) for p in rep.points] == [0.0, 0.05, 0.1, 0.15, 0.2]
    first = rep.points[0]
    assert first.primitive and first.reflection_invariant and first.zeta == -1
    assert (first.status, first.error) == ("ok", None)
    for p in rep.points[1:]:
        assert p.primitive
        assert not p.reflection_invariant
        assert p.zeta is None
        assert (p.status, p.error) == ("not_reflection_invariant", "NotReflectionInvariant")
    assert rep.first_failure == 0.05
    assert not rep.constant_index
    for p in rep.points:
        assert (p.zeta is not None) == (p.primitive and p.reflection_invariant)


def test_scan_first_failure_follows_grid_order():
    # on a descending grid the first failing point is the largest failing value
    rep = sz.scan(sz.family("aklt-breaker", 0.5, 0.0, 3))
    assert [p.s for p in rep.points] == [0.5, 0.25, 0.0]
    assert [p.status for p in rep.points] == ["not_reflection_invariant"] * 2 + ["ok"]
    assert rep.first_failure == 0.5


def test_scan_deformed_constant():
    rep = sz.scan(sz.family("deformed-aklt", grid=5))
    assert rep.constant_index
    assert rep.first_failure is None
    assert all(p.zeta == -1 for p in rep.points)
    assert abs(rep.points[0].transfer_gap - 2 / 3) < 1e-9
    assert abs(rep.points[-1].transfer_gap - 1 / 3) < 1e-9


def test_scan_gap_is_zero_with_several_peripheral_eigenvalues():
    # at s = -1 and s = 2 the deformed tuple's peripheral window holds more
    # than one eigenvalue, so no gap separates a dominant one
    rep = sz.scan(sz.family("deformed-aklt", -1.0, 2.0, 4))
    assert [p.status for p in rep.points] == ["not_primitive", "ok", "ok", "not_primitive"]
    assert [rep.points[0].transfer_gap, rep.points[3].transfer_gap] == [0.0, 0.0]
    assert abs(rep.points[1].transfer_gap - 2 / 3) < 1e-9


def test_scan_ghz_never_certifies():
    rep = sz.scan(sz.family("ghz", grid=3))
    assert all(not p.primitive and p.zeta is None for p in rep.points)
    assert all((p.status, p.error) == ("not_primitive", "NotPrimitive") for p in rep.points)
    assert rep.first_failure == 0.0
    assert not rep.constant_index


def test_scan_records_status_and_keeps_going(aklt):
    # the middle point raises NotNormalizable in the index (its fixed point
    # has rank 1); the scan records it and still evaluates the points after it
    broken = np.full((2, 2, 2), 1.0)
    spec = sz.FamilySpec(name="with-broken-point", s0=0.0, s1=1.0, grid=3,
                         generator=lambda s: broken if s == 0.5 else aklt.v)
    rep = sz.scan(spec)
    assert [p.status for p in rep.points] == ["ok", "numerical_error", "ok"]
    assert [p.error for p in rep.points] == [None, "NotNormalizable", None]
    mid = rep.points[1]
    assert not mid.primitive and not mid.reflection_invariant and mid.zeta is None
    assert rep.points[2].zeta == -1
    assert rep.first_failure == 0.5
    assert not rep.constant_index


def test_scan_inconclusive_points():
    rep = sz.scan(sz.family("deformed-aklt", grid=3), sz.Config(l_max=1))
    for p in rep.points:
        assert p.status == "inconclusive" and p.error == "Inconclusive"
        assert not p.primitive and p.zeta is None
        assert p.transfer_gap is not None
    assert rep.first_failure == 0.0

