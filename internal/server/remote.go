package server

import (
	"context"
	"errors"
	"fmt"
)

// ErrIneligible marks a job a particular daemon cannot faithfully
// execute — today, a trace-file config whose paths the daemon's
// advertised trace root does not cover. The client wraps its
// pre-submission rejections with it so fleet schedulers can tell "this
// worker must not run this job" (route it elsewhere, keep the worker)
// from a transport failure (the worker is gone).
var ErrIneligible = errors.New("job not executable on this daemon")

// Machine-readable failure reasons carried on JobStatus.Reason (and
// through RemoteJobError.Reason), so fleet schedulers classify terminal
// failures without parsing error strings.
const (
	// ReasonDeadline: the job's propagated deadline expired before it
	// could finish — retryable on a less loaded worker, not evidence the
	// simulation or the daemon is broken.
	ReasonDeadline = "deadline"
	// ReasonQuarantined: the job was poison-quarantined after killing
	// successive workers; resubmitting it fails fast.
	ReasonQuarantined = "quarantined"
)

// ErrCodeDeadlineUnmeetable is the structured error code of an
// admission-time load shed: the daemon's estimated queue drain time
// already exceeds the submission's deadline, so accepting the job would
// only waste a scheduler slot.
const ErrCodeDeadlineUnmeetable = "deadline_unmeetable"

// DeadlineHeader carries a request's absolute deadline (milliseconds
// since the Unix epoch) from client to daemon, letting the manager
// enforce the caller's context deadline queue-side.
const DeadlineHeader = "X-Ccsimd-Deadline-Ms"

// ErrPermanent marks a failure of the job itself — a config the worker
// rejected as invalid (HTTP 400), or a simulation that failed in
// process — which would recur identically on any worker.
var ErrPermanent = errors.New("server: permanent job failure")

// Remote is an execution backend that runs one job: a peer ccsimd
// daemon reached through internal/client's Peer adapter, or Local, the
// in-process worker (the interface lives here, not in the client
// package, so the manager can depend on it without an import cycle).
// A Fleet holds up to Slots() attempts on each Remote at once.
//
// Run's outcome is classified once, by the fleet, for every caller:
//
//   - success: the job is done;
//   - a *RemoteJobError (the simulation failed) or ErrPermanent (the
//     config was rejected): the job fails — retrying elsewhere would
//     fail identically;
//   - a deadline failure (a *RemoteJobError with Reason ReasonDeadline,
//     or ErrDeadlineExceeded for an admission shed): retry on another
//     worker while the job's deadline has not passed; the worker's
//     breaker is untouched and it is not a crash;
//   - ErrIneligible: retry on another worker, with no tried mark and no
//     crash — the worker is healthy, it just must not run this job;
//   - anything else is a transport failure: the worker's breaker
//     records a failure and the job a crash (poison quarantine).
type Remote interface {
	// Name identifies the backend in logs and errors (its base URL).
	Name() string
	// Slots is the backend's concurrent-job capacity: how many attempts
	// the fleet runs on it at once.
	Slots() int
	// Run executes one job to a terminal state and returns its final
	// status (result included). Cancelling ctx must cancel the remote
	// job best-effort.
	Run(ctx context.Context, spec JobSpec) (JobStatus, error)
}

// RemoteJobError reports a job that a remote daemon accepted and then
// finished unsuccessfully — failed or canceled server-side — as opposed
// to a transport error, after which the peer's state is unknown.
type RemoteJobError struct {
	Endpoint string   // base URL of the daemon that ran the job
	JobID    string   // the daemon's job ID
	State    JobState // failed or canceled
	Message  string   // the daemon's error string
	Reason   string   // machine-readable cause (ReasonDeadline, ReasonQuarantined, or "")
}

// Error implements error.
func (e *RemoteJobError) Error() string {
	return fmt.Sprintf("remote job %s on %s %s: %s", e.JobID, e.Endpoint, e.State, e.Message)
}
