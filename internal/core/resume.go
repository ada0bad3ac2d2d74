package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
)

// ResumeSource resumes an interrupted campaign from its checkpoint
// archive: months already captured replay from the archive at replay
// speed, and measurement continues live at the first missing month, with
// the final Results bit-identical to an uninterrupted run.
//
// The identity argument: simulated silicon is deterministic but STATEFUL
// — every power-up draw advances a chip's noise stream, and the aging
// integrator's float trajectory depends on the exact AgeTo call sequence.
// A resumed campaign therefore cannot jump the live source straight to
// the first missing month; it must put the silicon through the exact
// measurement history the original run performed. ResumeSource does that
// by fast-forwarding: for every archived month it runs the live source's
// full Measure with a discarding sink (same AgeTo calls, same RNG draws,
// records dropped) CONCURRENTLY with the archive replay that feeds the
// engine. When the first missing month arrives, the live silicon is in
// exactly the state the uninterrupted run would have had, and live
// measurement takes over seamlessly.
type ResumeSource struct {
	live Source
	arch *ArchiveSource
	done map[int]bool

	beforeLive  func() error
	liveStarted bool
}

// NewResumeSource composes a live source and a checkpoint archive.
// doneMonths lists the months to serve from the archive (ascending, as
// recovered from the checkpoint); every one of them must hold a complete
// window of windowSize on every board, and the archive's device count
// must match the live source's. An empty doneMonths is valid and yields
// a pure live source (a checkpoint that held no complete month).
func NewResumeSource(live Source, arch *ArchiveSource, doneMonths []int, windowSize int) (*ResumeSource, error) {
	return newResumeSource(live, arch, doneMonths, windowSize, false)
}

// NewScreenedResumeSource is NewResumeSource for a campaign that runs
// with corner screening: archived months are validated with the
// survivor-aware lister (a board absent from a month was pruned, not
// lost), and the engine's prune calls during replayed months forward to
// both halves so the live silicon's population tracks the original
// run's exactly.
func NewScreenedResumeSource(live Source, arch *ArchiveSource, doneMonths []int, windowSize int) (*ResumeSource, error) {
	if live != nil {
		if _, ok := live.(DevicePruner); !ok {
			return nil, fmt.Errorf("%w: screened resume needs a live source that can prune devices; %T cannot", ErrConfig, live)
		}
	}
	return newResumeSource(live, arch, doneMonths, windowSize, true)
}

func newResumeSource(live Source, arch *ArchiveSource, doneMonths []int, windowSize int, screened bool) (*ResumeSource, error) {
	if live == nil {
		return nil, fmt.Errorf("%w: resume needs a live source", ErrConfig)
	}
	done := make(map[int]bool, len(doneMonths))
	if len(doneMonths) > 0 {
		if arch == nil {
			return nil, fmt.Errorf("%w: resume with %d archived months needs an archive source", ErrConfig, len(doneMonths))
		}
		if arch.Devices() != live.Devices() {
			return nil, fmt.Errorf("%w: checkpoint archive holds %d devices, live source %d",
				ErrConfig, arch.Devices(), live.Devices())
		}
		avail, err := arch.AvailableMonths(windowSize)
		if screened {
			avail, err = arch.AvailableMonthsSurviving(windowSize)
		}
		if err != nil {
			return nil, err
		}
		complete := make(map[int]bool, len(avail))
		for _, m := range avail {
			complete[m] = true
		}
		for _, m := range doneMonths {
			if !complete[m] {
				return nil, fmt.Errorf("%w: checkpoint archive has no complete %d-measurement window for month %d",
					ErrShortWindow, windowSize, m)
			}
			done[m] = true
		}
	}
	return &ResumeSource{live: live, arch: arch, done: done}, nil
}

// OnBeforeLive installs a hook invoked exactly once, before the first
// live (non-archived) month is measured — the moment a resuming service
// arms its archive tap so fast-forwarded months are not re-recorded but
// every live month checkpoints again.
func (s *ResumeSource) OnBeforeLive(fn func() error) { s.beforeLive = fn }

// Devices returns the board count (live and archive agree by
// construction).
func (s *ResumeSource) Devices() int { return s.live.Devices() }

// DeviceProfileNames forwards the live source's per-device profile
// listing (ProfileLister), so a resumed fleet campaign keeps its
// per-profile breakdown on replayed months too.
func (s *ResumeSource) DeviceProfileNames() []string {
	if pl, ok := s.live.(ProfileLister); ok {
		return pl.DeviceProfileNames()
	}
	return nil
}

// ProfileAssignment forwards the live source's compact profile
// assignment (ProfileAssigner) — the fleet-scale form of the listing.
func (s *ResumeSource) ProfileAssignment() ([]string, []uint8) {
	if pa, ok := s.live.(ProfileAssigner); ok {
		return pa.ProfileAssignment()
	}
	return nil, nil
}

// PruneDevices forwards a screening decision to both halves: the live
// silicon stops fast-forwarding the pruned devices (matching the
// original run, which pruned them at the same months — the decisions
// are deterministic) and the archive stops replaying their segments.
func (s *ResumeSource) PruneDevices(indices []int) error {
	dp, ok := s.live.(DevicePruner)
	if !ok {
		return fmt.Errorf("%w: resume live source %T cannot prune devices", ErrConfig, s.live)
	}
	if err := dp.PruneDevices(indices); err != nil {
		return err
	}
	if s.arch != nil {
		return s.arch.PruneDevices(indices)
	}
	return nil
}

// Measure serves one evaluation window. Archived months replay from the
// checkpoint into sink while the live silicon fast-forwards through the
// same window into a discard sink; later months measure live.
func (s *ResumeSource) Measure(ctx context.Context, month, size int, sink Sink) error {
	if !s.done[month] {
		if !s.liveStarted {
			s.liveStarted = true
			if s.beforeLive != nil {
				if err := s.beforeLive(); err != nil {
					return fmt.Errorf("resume: month %d: arming live tap: %w", month, err)
				}
			}
		}
		return s.live.Measure(ctx, month, size, sink)
	}
	var wg sync.WaitGroup
	var replayErr, forwardErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		forwardErr = s.live.Measure(ctx, month, size, discardSink)
	}()
	replayErr = s.arch.Measure(ctx, month, size, sink)
	wg.Wait()
	if replayErr != nil || forwardErr != nil {
		return fmt.Errorf("resume: month %d: %w", month, errors.Join(replayErr, forwardErr))
	}
	return nil
}

// Close releases the checkpoint archive. The live source's lifetime
// belongs to whoever built it (sharded live sources hold worker
// processes and are closed by the service runner).
func (s *ResumeSource) Close() error {
	if s.arch != nil {
		return s.arch.Close()
	}
	return nil
}
