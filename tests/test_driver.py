"""The driver stops after an event that fails part-way, and keeps running
after one it rejects before changing anything."""

import pytest

from streamtopk import (DocumentStore, FeedbackStore, IncrementalTopKEngine, ShardSet,
                        StreamDriver, WindowPolicy)
from streamtopk.driver import Arrival, Feedback

from helpers import mkdoc, mkquery


def _build(workers):
    store = DocumentStore(WindowPolicy.count_based(10))
    feedback = FeedbackStore()
    engine = (ShardSet(store, workers, feedback) if workers > 1
              else IncrementalTopKEngine(store, feedback))
    engine.register(mkquery("q", {1: 1.0}, k=2))
    driver = StreamDriver(store, engine, feedback)
    for did in (1, 2, 3):
        driver.process(Arrival(mkdoc(did, {1: did})))
    engines = engine.shards if workers > 1 else [engine]
    return driver, engines


def _raise(*args, **kwargs):
    raise RuntimeError("engine fault")


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("method, event, named", [
    ("apply_arrival", Arrival(mkdoc(4, {1: 4}), lineno=17), "line 17"),
    ("apply_arrival", Arrival(mkdoc(4, {1: 4})), "arrival of document 4"),
    ("apply_feedback", Feedback(2, 0.5, lineno=9), "line 9"),
    ("apply_feedback", Feedback(2, 0.5), "rating of document 2"),
])
def test_failure_after_the_first_change_stops_the_driver(workers, method, event, named,
                                                         monkeypatch):
    driver, engines = _build(workers)
    for eng in engines:  # the raise comes from inside the engine the driver holds
        monkeypatch.setattr(eng, method, _raise)
    with pytest.raises(RuntimeError, match="engine fault"):
        driver.process(event)
    monkeypatch.undo()
    for later in (Arrival(mkdoc(5, {1: 5})), Feedback(3, 0.9)):
        with pytest.raises(RuntimeError, match=f"stopped after the .*{named} failed"):
            driver.process(later)


@pytest.mark.parametrize("workers", [1, 2])
def test_value_error_after_the_first_change_stops_the_driver(workers, monkeypatch):
    driver, engines = _build(workers)

    def bad(*args, **kwargs):
        raise ValueError("engine rejects it")

    for eng in engines:
        monkeypatch.setattr(eng, "apply_arrival", bad)
    with pytest.raises(ValueError, match="line 4: engine rejects it"):
        driver.process(Arrival(mkdoc(4, {1: 4}), lineno=4))
    with pytest.raises(RuntimeError, match="line 4"):
        driver.process(Feedback(2, 0.5))


@pytest.mark.parametrize("workers", [1, 2])
def test_rejected_input_leaves_the_driver_running(workers):
    driver, _ = _build(workers)
    for bad in (Arrival(mkdoc(3, {1: 9}), lineno=5),        # repeated id
                Arrival(mkdoc(4, {1: 9}, t=1), lineno=6),   # time goes back
                Feedback(2, 1.5, lineno=7),                 # rating out of range
                Feedback(99, 0.5, lineno=8)):               # unknown document
        with pytest.raises(ValueError, match=f"line {bad.lineno}:"):
            driver.process(bad)
    out = driver.process(Arrival(mkdoc(4, {1: 4})))
    assert out.changed == {"q"}
    assert driver.current_result("q") == [(4, 4.0), (3, 3.0)]
    assert driver.process(Feedback(3, 1.0)).changed == {"q"}
