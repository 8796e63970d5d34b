"""Result records are immutable NamedTuples, and only two classes stay dataclasses."""

import dataclasses
import importlib
import json
import pkgutil

import numpy as np
import pytest

import spt_z2 as sz
from spt_z2 import cli

# The classes that need dataclass machinery: Config (validation in __post_init__,
# replace, and fields that drive the flags) and MpsTuple (its cached channel
# residual).
DATACLASSES = {"Config", "MpsTuple"}


def _package_classes():
    """Every class defined in a module of the package, as (name, class)."""
    found = []
    for info in pkgutil.iter_modules(sz.__path__):
        module = importlib.import_module(f"spt_z2.{info.name}")
        found += [(name, value) for name, value in vars(module).items()
                  if isinstance(value, type) and value.__module__ == module.__name__]
    return found


RECORDS = sorted((cls for _, cls in _package_classes()
                  if issubclass(cls, tuple) and hasattr(cls, "_fields")),
                 key=lambda cls: cls.__name__)


def test_only_two_classes_stay_dataclasses():
    found = {name for name, cls in _package_classes() if dataclasses.is_dataclass(cls)}
    assert found == DATACLASSES, (
        f"dataclasses {sorted(found - DATACLASSES)} beyond {sorted(DATACLASSES)}: decorating "
        "one costs about 1 ms in every spt-z2 process on Python 3.11; make it a NamedTuple")


def test_every_public_record_is_a_named_tuple():
    public = {name for name in sz.__all__ if isinstance(getattr(sz, name), type)}
    records = {cls.__name__ for cls in RECORDS}
    assert {"ParentInteraction", "EdReport", "EdBlock", "BipartiteVector", "SchmidtData",
            "ModularReport", "PrimitivityCertificate", "ReflectionEvidence", "IndexReport",
            "FamilySpec", "ScanPoint", "ScanReport"} == public & records
    # the stages' own records, which the package does not export
    assert {"IndexCertificates", "ModelEntry", "InvariantState", "Marginal", "ReflectedTuple",
            "GaugeSolution", "ChainBlock", "HermEig"} <= records - public


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_records_refuse_assignment(cls):
    record = cls(*[None] * len(cls._fields))
    with pytest.raises(AttributeError):
        setattr(record, cls._fields[0], 1)
    with pytest.raises(AttributeError):
        record.extra = 1


def test_jsonable_writes_a_record_as_an_object_in_field_order():
    ed = sz.EdReport(ground_energy=0.0, kernel_dim=1, kernel_cut=1e-16, gap=0.5,
                     spectrum_head=np.array([0.0, 0.5]), blocks=(sz.EdBlock(1, 2, 1),))
    out = cli.jsonable({"ed": ed, "pair": (1, 2.5), "records": [ed]})
    assert list(out["ed"]) == ["ground_energy", "kernel_dim", "kernel_cut", "gap",
                               "spectrum_head", "blocks"]
    assert out["ed"] == {"ground_energy": 0.0, "kernel_dim": 1, "kernel_cut": 1e-16, "gap": 0.5,
                         "spectrum_head": [0.0, 0.5],
                         "blocks": [{"parity": 1, "dim": 2, "kernel_dim": 1}]}
    assert out["pair"] == [1, 2.5]
    assert out["records"] == [out["ed"]]
    assert json.dumps(cli.jsonable(ed)).startswith('{"ground_energy": 0.0, "kernel_dim": 1')

