package online

import (
	"context"
	"errors"
	"testing"

	"dcnflow/internal/core"
	"dcnflow/internal/flow"
	"dcnflow/internal/power"
	"dcnflow/internal/schedule"
	"dcnflow/internal/timeline"
)

// assertSchedulesIdentical compares two rolling outcomes bit for bit:
// same rejections, same per-flow paths and rate segments, same energy.
func assertSchedulesIdentical(t *testing.T, a, b *RollingResult) {
	t.Helper()
	if len(a.RejectedIDs) != len(b.RejectedIDs) {
		t.Fatalf("rejected %d vs %d flows", len(a.RejectedIDs), len(b.RejectedIDs))
	}
	for i := range a.RejectedIDs {
		if a.RejectedIDs[i] != b.RejectedIDs[i] {
			t.Fatalf("rejected ID mismatch at %d: %d vs %d", i, a.RejectedIDs[i], b.RejectedIDs[i])
		}
	}
	af, bf := a.Schedule.FlowIDs(), b.Schedule.FlowIDs()
	if len(af) != len(bf) {
		t.Fatalf("schedules cover %d vs %d flows", len(af), len(bf))
	}
	for i, id := range af {
		if bf[i] != id {
			t.Fatalf("flow order mismatch at %d: %d vs %d", i, id, bf[i])
		}
		fa, fb := a.Schedule.FlowSchedule(id), b.Schedule.FlowSchedule(id)
		if fa.Path.Key() != fb.Path.Key() {
			t.Fatalf("flow %d: path %v vs %v", id, fa.Path, fb.Path)
		}
		if len(fa.Segments) != len(fb.Segments) {
			t.Fatalf("flow %d: %d vs %d segments", id, len(fa.Segments), len(fb.Segments))
		}
		for k := range fa.Segments {
			if fa.Segments[k] != fb.Segments[k] {
				t.Fatalf("flow %d segment %d: %+v vs %+v", id, k, fa.Segments[k], fb.Segments[k])
			}
		}
	}
}

// TestRollingDeltaDriftZeroBitIdentical pins the determinism contract: delta
// mode with DriftBound = 0 never takes the delta path, so its output — and
// every shared statistic — must match the default full-re-plan run bit for
// bit.
func TestRollingDeltaDriftZeroBitIdentical(t *testing.T) {
	ft, fs := diurnalWorkload(t, 30, 9)
	m := power.Model{Mu: 1, Alpha: 2, C: 1e9}
	base, _, err := RunRollingCtx(context.Background(), ft.Graph, fs, m, nil, rollingOpts(ArrivalCount{N: 1}))
	if err != nil {
		t.Fatal(err)
	}
	opts := rollingOpts(ArrivalCount{N: 1})
	opts.Delta = core.DeltaOptions{Enabled: true, DriftBound: 0}
	pinned, _, err := RunRollingCtx(context.Background(), ft.Graph, fs, m, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	if pinned.Stats.DeltaEpochs != 0 {
		t.Fatalf("DriftBound=0 ran %d delta epochs, want 0", pinned.Stats.DeltaEpochs)
	}
	if base.Stats != pinned.Stats {
		t.Fatalf("stats diverged:\n default: %+v\n pinned:  %+v", base.Stats, pinned.Stats)
	}
	assertSchedulesIdentical(t, base, pinned)
	if ea, eb := base.Schedule.EnergyTotal(m), pinned.Schedule.EnergyTotal(m); ea != eb {
		t.Fatalf("energy %v vs %v", ea, eb)
	}
}

// TestRollingDeltaMeetsDeadlines runs delta mode end to end on the diurnal
// workload: delta epochs must actually fire and reuse intervals, every
// admitted flow's deadline must hold, and the energy must stay within a
// modest factor of the full-re-plan run (delta epochs skip the rebalance
// sweep, so exact equality is not expected).
func TestRollingDeltaMeetsDeadlines(t *testing.T) {
	ft, fs := diurnalWorkload(t, 40, 3)
	m := power.Model{Mu: 1, Alpha: 2, C: 1e9}
	full, _, err := RunRollingCtx(context.Background(), ft.Graph, fs, m, nil, rollingOpts(ArrivalCount{N: 1}))
	if err != nil {
		t.Fatal(err)
	}
	opts := rollingOpts(ArrivalCount{N: 1})
	opts.Delta = core.DeltaOptions{Enabled: true, DriftBound: 0.5, MaxStaleEpochs: 8}
	res, rep, err := RunRollingCtx(context.Background(), ft.Graph, fs, m, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.DeltaEpochs == 0 {
		t.Fatal("no delta epochs fired on a per-arrival trace")
	}
	if res.Stats.ReusedIntervals == 0 {
		t.Fatal("delta epochs reused no intervals")
	}
	if res.Stats.DeltaEpochs >= res.Stats.Epochs {
		t.Fatalf("every epoch went delta (%d of %d): the stale cap never forced a full re-plan",
			res.Stats.DeltaEpochs, res.Stats.Epochs)
	}
	if err := res.Schedule.Verify(ft.Graph, fs, m, schedule.VerifyOptions{}); err != nil {
		t.Fatal(err)
	}
	if rep.DeadlineViolations != 0 {
		t.Fatalf("delta run missed %d deadlines", rep.DeadlineViolations)
	}
	ef, ed := full.Schedule.EnergyTotal(m), res.Schedule.EnergyTotal(m)
	if ed > 1.5*ef {
		t.Fatalf("delta energy %v vs full %v: more than 1.5x apart", ed, ef)
	}
}

// TestRollingDeltaSolvesFewerIntervals is the cost claim behind the delta
// path: across a per-arrival trace it must solve strictly fewer intervals
// than the full-re-plan run touches.
func TestRollingDeltaSolvesFewerIntervals(t *testing.T) {
	ft, fs := diurnalWorkload(t, 40, 3)
	m := power.Model{Mu: 1, Alpha: 2, C: 1e9}
	full, _, err := RunRollingCtx(context.Background(), ft.Graph, fs, m, nil, rollingOpts(ArrivalCount{N: 1}))
	if err != nil {
		t.Fatal(err)
	}
	opts := rollingOpts(ArrivalCount{N: 1})
	opts.Delta = core.DeltaOptions{Enabled: true, DriftBound: 0.5, MaxStaleEpochs: 8}
	res, _, err := RunRollingCtx(context.Background(), ft.Graph, fs, m, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.SolvedIntervals >= full.Stats.SolvedIntervals {
		t.Fatalf("delta solved %d intervals, full %d: no localization",
			res.Stats.SolvedIntervals, full.Stats.SolvedIntervals)
	}
}

// TestRollingDuplicatePendingArrival is the admission regression for the
// duplicate-ID bug: a second same-ID flow queued into the same epoch must
// be rejected up front, not planned over the first one's reservation.
func TestRollingDuplicatePendingArrival(t *testing.T) {
	ft, _ := diurnalWorkload(t, 4, 1)
	m := power.Model{Mu: 1, Alpha: 2, C: 1e9}
	s, err := NewRollingCtx(context.Background(), ft.Graph, m, timeline.Interval{Start: 0, End: 100}, rollingOpts(FixedPeriod{Period: 50}))
	if err != nil {
		t.Fatal(err)
	}
	f := flow.Flow{ID: 5, Src: ft.Hosts[0], Dst: ft.Hosts[1], Release: 1, Deadline: 40, Size: 10}
	if err := s.Arrive(f); err != nil {
		t.Fatal(err)
	}
	if err := s.Arrive(f); !errors.Is(err, ErrBadInput) {
		t.Fatalf("duplicate pending arrival: err = %v, want ErrBadInput", err)
	}
	// The run must still finish cleanly with the single admitted copy.
	res, err := s.Result()
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Admitted != 1 {
		t.Fatalf("admitted %d flows, want 1", res.Stats.Admitted)
	}
}

// TestRollingDeltaEmptyEpochKeepsState: a time-driven boundary with no
// queued arrivals must not destroy the carried fingerprint state in delta
// mode (an empty solve would), so later arrivals still localize.
func TestRollingDeltaEmptyEpochKeepsState(t *testing.T) {
	ft, _ := diurnalWorkload(t, 4, 1)
	m := power.Model{Mu: 1, Alpha: 2, C: 1e9}
	opts := rollingOpts(FixedPeriod{Period: 5})
	opts.Delta = core.DeltaOptions{Enabled: true, DriftBound: 0.5}
	s, err := NewRollingCtx(context.Background(), ft.Graph, m, timeline.Interval{Start: 0, End: 100}, opts)
	if err != nil {
		t.Fatal(err)
	}
	mk := func(id flow.ID, rel float64) flow.Flow {
		return flow.Flow{ID: id, Src: ft.Hosts[0], Dst: ft.Hosts[1], Release: rel, Deadline: 90, Size: 5}
	}
	if err := s.Arrive(mk(1, 0)); err != nil {
		t.Fatal(err)
	}
	// Cross several empty boundaries, then a second arrival.
	if err := s.AdvanceTo(30); err != nil {
		t.Fatal(err)
	}
	if err := s.Arrive(mk(2, 30)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Result(); err != nil {
		t.Fatal(err)
	}
	if s.prev == nil || len(s.prev.Fingerprints) == 0 {
		t.Fatal("fingerprint state lost across empty epochs")
	}
	if s.stats.DeltaEpochs == 0 {
		t.Fatal("second arrival did not take the delta path")
	}
}
