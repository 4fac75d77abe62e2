"""The package namespace: every public name, whether eager or lazily loaded."""

import importlib

import pytest

import ballotlab

DEFINING_MODULES = ("core", "errors", "ingest", "irv", "condorcet", "approval", "star")


def _definitions() -> dict[str, object]:
    found = {"__version__": ballotlab.__version__}
    for name in DEFINING_MODULES:
        module = importlib.import_module(f"ballotlab.{name}")
        found.update({k: v for k, v in vars(module).items() if k in ballotlab.__all__})
    return found


def test_every_public_name_is_its_defining_object():
    definitions = _definitions()
    assert set(definitions) == set(ballotlab.__all__)
    for name in ballotlab.__all__:
        assert getattr(ballotlab, name) is definitions[name], name


def test_ingest_is_the_function_not_the_module():
    assert callable(ballotlab.ingest)
    assert ballotlab.ingest is importlib.import_module("ballotlab.ingest").ingest


def test_star_import_binds_every_name():
    namespace: dict[str, object] = {}
    exec("from ballotlab import *", namespace)
    assert set(ballotlab.__all__) <= set(namespace)
    definitions = _definitions()
    assert all(namespace[name] is definitions[name] for name in ballotlab.__all__)


def test_dir_lists_every_public_name():
    assert set(ballotlab.__all__) <= set(dir(ballotlab))


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        ballotlab.no_such_name  # noqa: B018
    assert not hasattr(ballotlab, "no_such_name")
