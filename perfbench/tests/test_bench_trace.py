import pytest

import brauertilt
import brauertilt.verify  # noqa: F401
from brauertilt import complexes, coverings, endo, tilting, verify
from layertrace import TARGETS, BindingError, Tracer


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_subtracts_child_spans():
    clock = FakeClock()
    tr = Tracer(clock)
    events = [  # (time, span entered or None for exit)
        (0.0, "outer.a"),
        (2.0, "inner.b"),
        (3.0, "leaf.c"),
        (4.0, None),  # leaf.c: 1 s
        (5.0, None),  # inner.b: 3 s, 2 s of it its own
        (6.0, "inner.b"),
        (8.0, None),  # inner.b again: 2 s
        (10.0, None),  # outer.a: 10 s, 5 s of it its own
    ]
    for now, name in events:
        clock.now = now
        tr.enter(name) if name else tr.exit()

    assert tr.stats["outer.a"] == {"calls": 1, "self_s": 5.0}
    assert tr.stats["inner.b"] == {"calls": 2, "self_s": 4.0}
    assert tr.stats["leaf.c"] == {"calls": 1, "self_s": 1.0}
    # self times partition the outermost span
    assert tr.layer_self_seconds() == {"outer": 5.0, "inner": 4.0, "leaf": 1.0}


def test_nested_same_name_counts_once_per_call():
    clock = FakeClock()
    tr = Tracer(clock)
    tr.enter("modules.syzygy")
    clock.now = 1.0
    tr.enter("modules.syzygy")
    clock.now = 3.0
    tr.exit()
    clock.now = 4.0
    tr.exit()
    assert tr.stats["modules.syzygy"]["calls"] == 2
    assert tr.stats["modules.syzygy"]["self_s"] == 4.0


@pytest.fixture
def tracer():
    tr = Tracer()
    tr.install()
    yield tr
    tr.uninstall()


def test_wrappers_replace_every_by_value_import(tracer):
    wrapped = complexes.hom_complex_dim
    assert wrapped.__wrapped__ is not None
    for mod in (tilting, coverings, endo, verify, brauertilt):
        assert mod.hom_complex_dim is wrapped
    assert brauertilt.is_tilting is tilting.is_tilting is coverings.is_tilting
    assert hasattr(complexes.ChainMapSpace.__init__, "__wrapped__")
    assert hasattr(brauertilt.BrauerTreeAlgebra.__init__, "__wrapped__")


def test_uninstall_restores_originals():
    original = complexes.hom_complex_dim
    init = complexes.ChainMapSpace.__dict__["__init__"]
    tr = Tracer()
    tr.install()
    assert tilting.hom_complex_dim is not original
    tr.uninstall()
    assert tilting.hom_complex_dim is original and verify.hom_complex_dim is original
    assert complexes.ChainMapSpace.__dict__["__init__"] is init


def test_binding_check_finds_stale_copies(tracer):
    stale = tracer._originals  # id -> (original, span name)
    original = next(fn for fn, name in stale.values() if name == "complexes.hom_dim")
    tilting._stale_copy = original
    try:
        with pytest.raises(BindingError, match="tilting._stale_copy"):
            tracer.check_bindings()
    finally:
        del tilting._stale_copy
    endo._stale_table = {"hom": original}
    try:
        with pytest.raises(BindingError, match="endo._stale_table"):
            tracer.check_bindings()
    finally:
        del endo._stale_table
    tracer.check_bindings()


def test_binding_check_finds_unwrapped_method(tracer):
    cls = complexes.ChainMapSpace
    wrapper = cls.__dict__["__init__"]
    cls.__init__ = wrapper.__wrapped__
    try:
        with pytest.raises(BindingError, match="ChainMapSpace.__init__"):
            tracer.check_bindings()
    finally:
        cls.__init__ = wrapper


def test_spans_record_sizes_at_the_boundary(tracer):
    names = {name for _, _, name in TARGETS}
    assert len(names) == len(TARGETS)
    A = brauertilt.star_algebra(2, 1)
    T = brauertilt.min_proj_presentation(
        brauertilt.uniserial_rep(A, brauertilt.UniserialSpec(1, 1))
    )
    assert brauertilt.hom_complex_dim(T, T, 0, direct=True) >= 1
    stats = tracer.stats
    assert stats["modules.presentation"]["calls"] == 1
    assert stats["algebra.build"]["max_dim"] == A.dim
    assert stats["complexes.hom_dim"]["calls"] == 1
    assert stats["complexes.chain_map_space"]["in_hom"] == 1
    assert stats["complexes.chain_map_space"]["unknowns"] > 0
    assert stats["linalg.rref"]["cells"] > 0
    assert set(stats) <= names
