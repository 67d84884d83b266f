"""The benchmark tracer still finds every name it patches in the package."""

import importlib
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"

pytestmark = pytest.mark.skipif(
    not (BENCH / "tracing.py").is_file(), reason="bench/tracing.py is absent"
)


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    return importlib.import_module("tracing")


def _patched_names(tracing):
    """(owner, attribute) of every name Tracer.install replaces."""
    names = []
    for module_name, attr, _ in tracing._FUNCTIONS:
        names.append((importlib.import_module(module_name), attr))
    for module_name, cls_name, attr, _ in tracing._METHODS:
        names.append((getattr(importlib.import_module(module_name), cls_name), attr))
    gaussian = importlib.import_module("qhgerm.exact").GaussianRational
    names += [(gaussian, "__mul__"), (gaussian, "__rmul__")]
    return names


def test_install_and_uninstall_restore_the_originals(tracing):
    names = _patched_names(tracing)
    originals = [owner.__dict__[attr] for owner, attr in names]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        patched = [owner.__dict__[attr] for owner, attr in names]
        assert all(new is not old for new, old in zip(patched, originals))
    finally:
        tracer.uninstall()
    assert [owner.__dict__[attr] for owner, attr in names] == originals


def test_traced_radical_witness_sees_nth_root_and_no_eval_bivar(tracing):
    # the builder takes a radical witness's scalars through nth_root, and
    # the certificate evaluates no point, so the traced radical_witness run
    # sees calls to nth_root, time in verify_witness and none in eval_bivar
    from qhgerm import engine, parse_poly

    first, second = parse_poly("Y^2-X^3"), parse_poly("Y^2-3*X^3")
    tracer = tracing.Tracer()
    tracer.install()
    try:
        witness = engine.build_witness(first, second)
        assert engine.verify_witness(first, second, witness).passed
    finally:
        tracer.uninstall()
    names = [name for name, *_ in tracer.spans]
    assert names.count("numeric.eval_bivar") == 0
    assert names.count("numeric.nth_root") >= 1
    assert names.count("engine.verify_witness") == 1
