package engine

// Intake is the admission path of a service: where Run takes one
// pre-assembled job slice, an Intake accepts jobs one at a time from
// concurrent submitters (HTTP handlers) and bounds how many simulations run
// at once. It is a slot semaphore, Workers wide: Submit takes a slot, runs
// the job on the caller's goroutine and gives the slot back. Monolithic and
// multi-chip-module jobs take the same slots.
//
// Every job carries its submitter's context: a submission cancelled while
// it waits for a slot never starts, one cancelled while it runs aborts its
// own simulation, and neither affects anybody else.

import (
	"context"
	"errors"
	"sync"
	"time"
)

// ErrIntakeClosed is reported for submissions that could not run because
// the intake was closed.
var ErrIntakeClosed = errors.New("engine: intake closed")

// IntakeOptions tunes an Intake.
type IntakeOptions struct {
	// Workers bounds concurrently running simulations; <= 0 means
	// runtime.NumCPU().
	Workers int
	// Linger is ignored: submissions are not coalesced, each one runs as
	// soon as it has a slot. The field remains only for callers that still
	// set it.
	Linger time.Duration
}

// Intake runs simulation jobs from concurrent submitters on at most
// Workers slots. Create with NewIntake; Close when done.
type Intake struct {
	slots     chan struct{}
	closing   chan struct{}
	closeOnce sync.Once
}

// NewIntake returns an intake with every slot free.
func NewIntake(opt IntakeOptions) *Intake {
	return &Intake{
		slots:   make(chan struct{}, Workers(opt.Workers)),
		closing: make(chan struct{}),
	}
}

// Submit runs one job on the caller's goroutine once a slot is free and
// returns its Result. The context bounds the job: a submission whose
// context is done before it gets a slot never starts, and cancellation
// during the run aborts the run loop; either way the Result carries the
// context's error. Once Close has started, submissions that have not got a
// slot report ErrIntakeClosed.
func (in *Intake) Submit(ctx context.Context, j Job) Result {
	// Checked before the select: with a free slot AND a done context the
	// select picks arbitrarily, and a fast job could run to completion
	// despite being cancelled before it was admitted.
	if err := ctx.Err(); err != nil {
		return Result{Job: j, Err: err}
	}
	select {
	case in.slots <- struct{}{}:
	case <-ctx.Done():
		return Result{Job: j, Err: ctx.Err()}
	case <-in.closing:
		return Result{Job: j, Err: ErrIntakeClosed}
	}
	defer func() { <-in.slots }()
	// The slot may have been won in a race with Close.
	select {
	case <-in.closing:
		return Result{Job: j, Err: ErrIntakeClosed}
	default:
	}
	return runJob(ctx, j)
}

// Close stops admitting submissions — waiting ones report ErrIntakeClosed —
// and waits for running jobs to finish by taking every slot itself. (Running
// simulations run to completion: abort them by cancelling their submitters'
// contexts before closing.) Close is idempotent.
func (in *Intake) Close() {
	in.closeOnce.Do(func() {
		close(in.closing)
		for i := 0; i < cap(in.slots); i++ {
			in.slots <- struct{}{}
		}
	})
}
