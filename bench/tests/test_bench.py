"""Tests of the benchmark's own code: generator, oracle, spans, statistics.

Run from the repository root with ``python3 -m pytest bench/tests -q``.
"""

import filecmp
import time

import numpy as np
import pytest

import calibrate
import inputs
import oracle
import run
from spans import Tracer


def test_peres24_construction_validates():
    bases = inputs.peres24_bases()
    assert len(bases) == 24
    rays = {r for b in bases for r in b}
    assert len(rays) == 24
    assert all(sum(r in b for b in bases) == 4 for r in rays)


def test_validation_rejects_broken_ray_sets():
    bases = list(inputs.peres24_bases())
    with pytest.raises(ValueError, match="expected 24 bases"):
        inputs.validate_bases(bases[:-1], n_rays=24, n_bases=24, bases_per_ray=4)
    bent = [((1, 1, 0, 0),) + bases[0][1:]] + bases[1:]
    with pytest.raises(ValueError):
        inputs.validate_bases(bent, n_rays=24, n_bases=24, bases_per_ray=4)
    with pytest.raises(ValueError, match="exactly 2 bases"):
        inputs.validate_bases(bases, n_rays=24, n_bases=24, bases_per_ray=2)


def test_ks18_fixture_validates():
    bases = inputs.ks18_bases()
    assert len(bases) == 9 and len({r for b in bases for r in b}) == 18


def test_contexts_doc_is_a_function_of_the_seed():
    bases = inputs.ks18_bases()
    ids = [f"B{i}" for i in range(9)]
    one = inputs.contexts_doc(bases, ids, np.random.default_rng(5))
    again = inputs.contexts_doc(bases, ids, np.random.default_rng(5))
    other = inputs.contexts_doc(bases, ids, np.random.default_rng(6))
    assert one == again
    assert one != other


@pytest.mark.parametrize("name", ["operator-suite", "state-verdicts"])
def test_rounds_are_a_function_of_the_seed(tmp_path, name):
    from workloads import WORKLOADS
    dirs = [tmp_path / d for d in ("a", "b", "c")]
    rounds = []
    for d, seed in zip(dirs, (3, 3, 4)):
        d.mkdir()
        rounds.append(WORKLOADS[name](seed, str(d)).make_round(0))
    same = [filecmp.cmp(f, g, shallow=False)
            for a, b in zip(rounds[0], rounds[1]) for f, g in zip(a.files.values(), b.files.values())]
    differ = [filecmp.cmp(f, g, shallow=False)
              for a, c in zip(rounds[0], rounds[2]) for f, g in zip(a.files.values(), c.files.values())]
    assert all(same)
    assert not all(differ)
    assert [j.params for j in rounds[0]] == [j.params for j in rounds[1]]


def test_oracle_on_the_18_ray_set():
    bases = inputs.ks18_bases()
    assert not oracle.section_exists(bases)
    assert oracle.closed_count(bases) == 28


def test_oracle_on_a_6_basis_peres_subset():
    bases = inputs.peres24_bases()
    subset = [bases[i] for i in range(6)]
    assert oracle.section_exists(subset)
    assert oracle.closed_count(subset) == 17


def test_oracle_on_the_full_peres_set():
    bases = inputs.peres24_bases()
    assert not oracle.section_exists(bases)
    assert oracle.closed_count(bases) == 94


def test_oracle_sees_shared_planes():
    # two bases of the plane pair {e1, e2} | {e3, e4} that share no ray
    a = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 1), (0, 0, 1, -1))
    b = ((1, 1, 0, 0), (1, -1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
    meet = oracle.basis_context(a).meet(oracle.basis_context(b))
    assert meet is not None and len(meet.atoms) == 2
    assert oracle.closed_count([a, b]) == 4


def test_self_time_subtracts_children():
    tr = Tracer(enabled=True)
    with tr.span("job"):
        with tr.span("inner"):
            pass
    spans = {s.name: s for s in tr.spans}
    assert spans["inner"].parent == 0
    times = tr.self_times()
    total = spans["job"].end - spans["job"].start
    inner = spans["inner"].end - spans["inner"].start
    assert times["job"]["busy_s"] == pytest.approx(total - inner)
    assert times["inner"]["calls"] == 1 and times["job"]["failed"] == 0


def test_pauses_leave_the_innermost_span():
    tr = Tracer(enabled=True)
    with tr.span("job"):
        with tr.span("inner"):
            time.sleep(0.01)
        time.sleep(0.01)
    job, inner = tr.spans
    plain = tr.self_seconds()
    tr.pauses = [(inner.start + 1e-4, 0.004), (inner.end + 1e-4, 0.002)]
    paused = tr.self_seconds()
    assert paused[1] == pytest.approx(plain[1] - 0.004)
    assert paused[0] == pytest.approx(plain[0] - 0.002)


def test_failed_span_is_counted():
    tr = Tracer(enabled=True)
    with pytest.raises(RuntimeError):
        with tr.span("job"):
            raise RuntimeError("boom")
    assert tr.self_times()["job"]["failed"] == 1


def test_disabled_tracer_records_nothing():
    tr = Tracer(enabled=False)
    with tr.span("job"):
        pass
    assert tr.spans == []


def test_round_statistics_take_the_tail_within_each_round():
    times = {r: [float(t + 10 * r) for t in range(13)] for r in (0, 1)}
    stats = run.round_statistics(times)
    # rank 3 of 13 has ten jobs beyond it: 2.0 in round 0, 12.0 in round 1
    assert stats["tail"] == pytest.approx(7.0)
    assert stats["p50"] == pytest.approx(11.0)
    assert stats["tail_percentile"] == pytest.approx(300 / 13)
    with pytest.raises(ValueError):
        run.round_statistics({0: times[0][:10]})


def test_host_sampler_leaves_sampling_out_of_the_window():
    with calibrate.HostSampler() as host:
        start = time.perf_counter()
        while time.perf_counter() - start < 3 * calibrate.SAMPLE_EVERY_S:
            pass
        end = time.perf_counter()
    assert len(host.at) >= 4
    net, scale = host.window(start, end)
    inside = sum(t for a, t in zip(host.at, host.took) if start <= a < end)
    assert inside > 0
    assert net == pytest.approx(end - start - inside)
    assert scale > 0
