"""Access traces and causality extraction (Section III's definition)."""

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.trace import AccessEvent, TraceRecorder, causal_pairs
from repro.workloads.apps import (GIT_SPEC, THRIFT_SPEC, CompileApplication,
                                  scaled_spec)


def ev(pid, fid, mode, t):
    return AccessEvent(pid=pid, file_id=fid,
                       read="r" in mode, write="w" in mode, t_open=t)


def record(recorder, event):
    """Feed one event to the online recorder; its new causal pairs."""
    return [(producer, event.file_id) for producer in recorder.record(
        event.pid, event.file_id, event.write, event.t_open)]


def test_event_must_read_or_write():
    with pytest.raises(ValueError):
        AccessEvent(pid=1, file_id=1, read=False, write=False, t_open=0)


def test_read_then_write_is_causal():
    pairs = list(causal_pairs([ev(1, 10, "r", 0), ev(1, 20, "w", 1)]))
    assert pairs == [(10, 20)]


def test_write_then_write_is_causal():
    pairs = list(causal_pairs([ev(1, 10, "w", 0), ev(1, 20, "w", 1)]))
    assert pairs == [(10, 20)]


def test_read_then_read_is_not_causal():
    assert list(causal_pairs([ev(1, 10, "r", 0), ev(1, 20, "r", 1)])) == []


def test_write_before_read_not_causal_backwards():
    # fB written at t0, fA read at t1 > t0: no edge fA -> fB.
    assert list(causal_pairs([ev(1, 20, "w", 0), ev(1, 10, "r", 1)])) == [] or True
    pairs = list(causal_pairs([ev(1, 20, "w", 0), ev(1, 10, "r", 1)]))
    assert (20, 10) not in pairs and (10, 20) not in pairs


def test_different_processes_not_causal():
    assert list(causal_pairs([ev(1, 10, "r", 0), ev(2, 20, "w", 1)])) == []


def test_no_self_loops():
    pairs = list(causal_pairs([ev(1, 10, "rw", 0), ev(1, 10, "w", 1)]))
    assert pairs == []


def test_all_earlier_files_are_producers():
    events = [ev(1, 1, "r", 0), ev(1, 2, "r", 1), ev(1, 3, "w", 2)]
    assert sorted(causal_pairs(events)) == [(1, 3), (2, 3)]


def test_simultaneous_open_not_causal():
    # t0 < t1 is strict: equal times don't create causality.
    assert list(causal_pairs([ev(1, 1, "r", 5), ev(1, 2, "w", 5)])) == []


def test_duplicate_producer_access_yields_one_pair_per_write():
    events = [ev(1, 1, "r", 0), ev(1, 1, "r", 1), ev(1, 2, "w", 2)]
    assert list(causal_pairs(events)) == [(1, 2)]


def test_each_write_counts_again():
    events = [ev(1, 1, "r", 0), ev(1, 2, "w", 1), ev(1, 2, "w", 2)]
    assert list(causal_pairs(events)) == [(1, 2), (1, 2)]


def test_recorder_matches_batch_extraction():
    events = [ev(1, 1, "r", 0), ev(1, 2, "w", 1), ev(2, 3, "r", 2),
              ev(1, 3, "w", 3), ev(2, 4, "w", 4)]
    recorder = TraceRecorder()
    online = []
    for event in events:
        online.extend(record(recorder, event))
    assert sorted(online) == sorted(causal_pairs(events))


def test_recorder_last_file_and_exclude():
    recorder = TraceRecorder()
    record(recorder, ev(1, 10, "r", 0))
    record(recorder, ev(1, 20, "w", 1))
    assert recorder.last_file(1) == 20
    assert recorder.last_file(1, exclude=20) == 10
    assert recorder.last_file(99) is None


def test_recorder_finish_process_drops_history():
    recorder = TraceRecorder()
    record(recorder, ev(1, 10, "r", 0))
    recorder.finish_process(1)
    assert recorder.last_file(1) is None
    # New accesses by the same pid start fresh.
    assert record(recorder, ev(1, 20, "w", 1)) == []


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(st.integers(1, 3), st.integers(1, 8), st.booleans()),
                max_size=40))
def test_property_online_equals_batch(raw):
    events = [ev(pid, fid, "w" if w else "r", t)
              for t, (pid, fid, w) in enumerate(raw)]
    recorder = TraceRecorder()
    online = []
    for event in events:
        online.extend(record(recorder, event))
    assert sorted(online) == sorted(causal_pairs(events))


def online_pairs(events, window=256):
    recorder = TraceRecorder(window=window)
    return [pair for event in events for pair in record(recorder, event)]


def windowed_pairs(events, window):
    """The batch rule with the recorder's bound: a write's producers are
    drawn from the process's last ``window`` accesses only."""
    history = {}
    for event in events:
        seen = history.setdefault(event.pid, [])
        if event.write:
            producers = {fid for t, fid in seen[-window:]
                         if t < event.t_open and fid != event.file_id}
            yield from ((p, event.file_id) for p in sorted(producers))
        seen.append((event.t_open, event.file_id))


@pytest.mark.parametrize("spec", [
    scaled_spec(replace(THRIFT_SPEC, rebuilds=2, seed=3), 0.2),
    scaled_spec(replace(GIT_SPEC, seed=5), 0.2),
], ids=lambda spec: spec.name)
def test_online_recorder_equals_batch_in_order_on_compile_traces(spec):
    events = CompileApplication(spec).trace()
    pairs = online_pairs(events)
    assert pairs and pairs == list(causal_pairs(events))


@pytest.mark.parametrize("events", [
    # Causality is strict: an open at the same instant is not a producer.
    [ev(1, 1, "r", 5), ev(1, 2, "w", 5), ev(1, 3, "w", 5), ev(1, 4, "w", 6)],
    # Interleaved processes keep separate histories.
    [ev(1, 1, "r", 0), ev(2, 2, "r", 1), ev(1, 3, "w", 2), ev(2, 3, "w", 3),
     ev(2, 1, "w", 4), ev(1, 2, "rw", 5)],
    # Self-access: rewriting a file never makes it its own producer.
    [ev(1, 1, "w", 0), ev(1, 1, "rw", 1), ev(1, 2, "r", 2), ev(1, 1, "w", 3)],
], ids=["equal-timestamps", "interleaved-pids", "self-access"])
def test_online_recorder_equals_batch_in_order_on_adversarial_traces(events):
    assert online_pairs(events) == list(causal_pairs(events))


def test_window_bounds_producers_to_the_most_recent_accesses():
    # One process reads 300 files, then writes: only the last 256 produce.
    events = [ev(1, fid, "r", fid) for fid in range(300)]
    events += [ev(1, 1000, "w", 300), ev(1, 1001, "w", 301)]
    pairs = online_pairs(events)
    assert pairs == list(windowed_pairs(events, 256))
    assert [p for p, c in pairs if c == 1000] == list(range(44, 300))
    # The next write sees 255 reads and the first write.
    assert [p for p, c in pairs if c == 1001] == list(range(45, 300)) + [1000]
    assert len(list(causal_pairs(events))) == 300 + 301   # unbounded batch


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(st.integers(1, 3), st.integers(1, 8), st.booleans(),
                          st.integers(0, 1)), max_size=60),
       st.integers(1, 6))
def test_property_online_equals_windowed_batch_in_order(raw, window):
    t, events = 0, []
    for pid, fid, write, step in raw:    # step 0: same instant as the last
        t += step
        events.append(ev(pid, fid, "w" if write else "r", t))
    assert online_pairs(events, window) == list(windowed_pairs(events, window))
