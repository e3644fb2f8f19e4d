import asyncio
import sys
import types
from concurrent.futures import ThreadPoolExecutor

import pytest

import tracer
from tracer import Span, Target


def span(sid, parent, start, end, name="x"):
    return Span(sid, parent, name, start, end, 0, "", None)


def test_self_time_subtracts_the_union_of_children():
    spans = [
        span(1, 0, 0.0, 10.0, "root"),
        span(2, 1, 1.0, 4.0, "a"),
        span(3, 1, 3.0, 5.0, "b"),      # overlaps a: union 1..5
        span(4, 2, 2.0, 3.0, "c"),      # grandchild: not root's child
        span(5, 1, 9.0, 12.0, "d"),     # clipped to the root's end
    ]
    selfs = tracer.self_times(spans)
    assert selfs[1] == pytest.approx(10.0 - 4.0 - 1.0)
    assert selfs[2] == pytest.approx(3.0 - 1.0)
    assert selfs[3] == pytest.approx(2.0)
    assert selfs[4] == pytest.approx(1.0)
    assert selfs[5] == pytest.approx(3.0)
    agg = tracer.by_name(spans + [span(6, 0, 20.0, 21.0, "a")])
    assert agg["a"] == {"calls": 2, "total_s": 4.0,
                        "self_s": pytest.approx(3.0)}


def test_covered_length():
    assert tracer.covered_length([], 0, 1) == 0.0
    assert tracer.covered_length([(0, 2), (1, 3), (5, 6)], 0.5, 5.5) \
        == pytest.approx(3.0)


@pytest.fixture
def fake_package(monkeypatch):
    """``fakepkg.mod`` defines functions; ``fakepkg.user`` aliases one."""
    pkg = types.ModuleType("fakepkg")
    mod = types.ModuleType("fakepkg.mod")

    def inner(x):
        return x + 1

    def outer(x):
        return mod.inner(x) * 2

    async def coro(x):
        await asyncio.sleep(0)
        return mod.inner(x)

    class Thing:
        def method(self, x):
            return mod.inner(x)

    mod.inner, mod.outer, mod.coro, mod.Thing = inner, outer, coro, Thing
    user = types.ModuleType("fakepkg.user")
    user.helper = outer
    for name, m in (("fakepkg", pkg), ("fakepkg.mod", mod),
                    ("fakepkg.user", user)):
        monkeypatch.setitem(sys.modules, name, m)
    return mod, user


TARGETS = [
    Target("t.inner", "fakepkg.mod", "inner", extract=lambda a, k, r: (r,)),
    Target("t.outer", "fakepkg.mod", "outer"),
    Target("t.coro", "fakepkg.mod", "coro"),
    Target("t.method", "fakepkg.mod", "Thing.method",
           label=lambda a, k: f"t.method.{a[1]}"),
]


def test_wrappers_record_and_restore_originals(fake_package):
    mod, user = fake_package
    originals = (mod.inner, mod.outer, mod.coro, vars(mod.Thing)["method"],
                 user.helper)
    rec = tracer.Recorder()
    inst = tracer.install(rec, TARGETS)
    try:
        assert mod.outer is not originals[1]
        assert user.helper is mod.outer  # the alias is patched too
        assert user.helper(1) == 4
        assert asyncio.run(mod.coro(5)) == 6
        assert mod.Thing().method(7) == 8
    finally:
        inst.restore()
    assert (mod.inner, mod.outer, mod.coro, vars(mod.Thing)["method"],
            user.helper) == originals

    names = [s.name for s in rec.spans]
    assert names == ["t.inner", "t.outer", "t.inner", "t.coro",
                     "t.inner", "t.method.7"]
    by_id = {s.span_id: s for s in rec.spans}
    inner_of_outer = rec.spans[0]
    assert by_id[inner_of_outer.parent].name == "t.outer"
    assert by_id[rec.spans[2].parent].name == "t.coro"
    assert inner_of_outer.extra == (2,)
    rec.spans.clear()
    mod.outer(1)
    assert rec.spans == []  # restored: nothing records any more


def test_restore_on_failed_install(fake_package):
    mod, _ = fake_package
    original = mod.inner
    bad = TARGETS[:1] + [Target("t.missing", "fakepkg.mod", "Thing.nope")]
    with pytest.raises(AttributeError):
        tracer.install(tracer.Recorder(), bad)
    assert mod.inner is original


def test_pool_threads_parent_to_the_dispatching_span(fake_package):
    mod, _ = fake_package
    rec = tracer.Recorder()
    inst = tracer.install(rec, TARGETS)

    async def main():
        tracer.set_request_id("req-1")
        loop = asyncio.get_running_loop()
        with ThreadPoolExecutor(max_workers=2) as pool:
            async def dispatch():
                import contextvars
                ctx = contextvars.copy_context()
                return await loop.run_in_executor(pool, ctx.run,
                                                  mod.outer, 1)
            wrapped = rec.wrap(dispatch, Target("t.dispatch", "", ""))
            return await wrapped()

    try:
        assert asyncio.run(main()) == 4
    finally:
        inst.restore()
    spans = {s.name: s for s in rec.spans}
    assert spans["t.outer"].parent == spans["t.dispatch"].span_id
    assert spans["t.outer"].thread != spans["t.dispatch"].thread
    assert {s.request_id for s in rec.spans} == {"req-1"}


def test_dump_and_load_round_trip(tmp_path):
    rec = tracer.Recorder()
    rec.spans = [Span(1, 0, "a", 0.5, 1.5, 9, "r", (3, 4)),
                 Span(2, 1, "b", 0.6, 0.7, 9, "r", None)]
    path = tmp_path / "spans.json"
    rec.dump(str(path))
    assert tracer.Recorder.load(str(path)) == rec.spans
