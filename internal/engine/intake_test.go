package engine

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"gpuscale/internal/config"
	"gpuscale/internal/trace"
)

func intakeJob(name string) Job {
	return NewJob(config.MustScale(config.Baseline128(), 8), tinyWorkload(name))
}

// gateJob is a tiny job on mcm (monolithic 8 SMs when nil) whose first
// warp program, built once the job holds a slot and runs, sends the job's
// name on started and then blocks until release is closed.
func gateJob(name string, mcm *config.ChipletConfig, started chan<- string, release <-chan struct{}) Job {
	var once sync.Once
	j := intakeJob(name)
	j.MCM = mcm
	j.Kernels = []trace.Workload{&trace.FuncWorkload{
		WName: name,
		Spec:  trace.KernelSpec{NumCTAs: 4, WarpsPerCTA: 1},
		Factory: func(cta, warp int) trace.Program {
			once.Do(func() {
				started <- name
				<-release
			})
			return trace.NewPhaseProgram(trace.Phase{
				N: 16, ComputePer: 1,
				Gen: &trace.SeqGen{Start: uint64(cta * 4096), Stride: 128, Extent: 1 << 16},
			})
		},
	}}
	return j
}

// TestIntakeSubmitCancellation checks per-submission contexts: a cancelled
// submission fails with its context's error while a concurrent one
// completes.
func TestIntakeSubmitCancellation(t *testing.T) {
	in := NewIntake(IntakeOptions{Workers: 1})
	defer in.Close()

	cancelled, cancel := context.WithCancel(context.Background())
	cancel() // cancelled before admission: the simulation must never start

	var wg sync.WaitGroup
	var live, dead Result
	wg.Add(2)
	go func() { defer wg.Done(); live = in.Submit(context.Background(), intakeJob("intake-live")) }()
	go func() { defer wg.Done(); dead = in.Submit(cancelled, intakeJob("intake-dead")) }()
	wg.Wait()

	if live.Err != nil {
		t.Errorf("live submission failed: %v", live.Err)
	}
	if !errors.Is(dead.Err, context.Canceled) {
		t.Errorf("cancelled submission error = %v, want context.Canceled", dead.Err)
	}
}

// TestIntakeOneSlotForEveryJob checks that a monolithic and a
// multi-chip-module job share the Workers slots: with one slot, the MCM job
// starts only after the monolithic job ahead of it has finished, and then
// reports its statistics in Result.Stats like any other job.
func TestIntakeOneSlotForEveryJob(t *testing.T) {
	in := NewIntake(IntakeOptions{Workers: 1})
	defer in.Close()
	ctx := context.Background()
	mcm := config.MustScaleChiplets(config.Target16Chiplet(), 2)

	started := make(chan string, 2)
	releaseMono, releaseMCM := make(chan struct{}), make(chan struct{})
	mono, multi := make(chan Result, 1), make(chan Result, 1)
	go func() { mono <- in.Submit(ctx, gateJob("mono", nil, started, releaseMono)) }()
	if got := <-started; got != "mono" {
		t.Fatalf("first job to start = %q, want mono", got)
	}
	go func() { multi <- in.Submit(ctx, gateJob("mcm", &mcm, started, releaseMCM)) }()
	select {
	case name := <-started:
		t.Fatalf("%s started while the only slot was taken", name)
	case <-time.After(100 * time.Millisecond):
	}
	close(releaseMono)
	if got := <-started; got != "mcm" {
		t.Fatalf("second job to start = %q, want mcm", got)
	}
	close(releaseMCM)
	if r := <-mono; r.Err != nil {
		t.Errorf("monolithic job: %v", r.Err)
	}
	r := <-multi
	if r.Err != nil {
		t.Fatalf("MCM job: %v", r.Err)
	}
	if r.Stats.CTAs != 4 || r.Stats.Instructions == 0 {
		t.Errorf("MCM job result = %+v, want its 4 CTAs", r.Stats)
	}
	if got, want := r.Job.Label(), mcm.Name+"/mcm"; got != want {
		t.Errorf("MCM job label = %q, want %q", got, want)
	}
}

// TestIntakeClose checks the close behaviours: a submission waiting for a
// slot fails with ErrIntakeClosed, Close waits for the running job,
// submissions after Close are refused, and Close is idempotent.
func TestIntakeClose(t *testing.T) {
	in := NewIntake(IntakeOptions{Workers: 1})
	ctx := context.Background()
	started := make(chan string, 1)
	release := make(chan struct{})
	running := make(chan Result, 1)
	go func() { running <- in.Submit(ctx, gateJob("intake-running", nil, started, release)) }()
	<-started

	waiting := make(chan Result, 1)
	go func() { waiting <- in.Submit(ctx, intakeJob("intake-waiting")) }()
	closed := make(chan struct{})
	go func() { in.Close(); close(closed) }()
	select {
	case r := <-waiting:
		if !errors.Is(r.Err, ErrIntakeClosed) {
			t.Errorf("waiting submission error = %v, want ErrIntakeClosed", r.Err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not fail the waiting submission")
	}
	select {
	case <-closed:
		t.Fatal("Close returned while a job was running")
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not return after the running job finished")
	}
	if r := <-running; r.Err != nil {
		t.Errorf("running job: %v", r.Err)
	}
	if r := in.Submit(ctx, intakeJob("intake-after")); !errors.Is(r.Err, ErrIntakeClosed) {
		t.Errorf("post-Close submission error = %v, want ErrIntakeClosed", r.Err)
	}
	in.Close() // idempotent
}
