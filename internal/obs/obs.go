// Package obs is the unified observability layer: a fan-out bus for runtime
// decision events (squad formation, execution-configuration choice, context
// switches, pace-guard trips, endgame flushes), a streaming metrics registry
// cheap enough to stay always-on, and exporters — Chrome trace-event JSON
// (Perfetto-loadable) and metrics snapshots — reconstructing the visibility
// the paper's evaluation (§6) obtained from Nsight/CUDA-event profiling.
//
// The layer is layered on top of, not into, the simulator: kernel-level
// execution is observed through the sim.Tracer fan-out (GPU.AddTracer), and
// scheduler-level decisions are emitted by internal/core onto a Bus. With no
// subscribers attached, both paths are no-ops and the kernel hot path
// allocates nothing.
package obs

import (
	"fmt"
	"time"

	"bless/internal/sim"
)

// Kind enumerates the runtime decision events of the BLESS scheduling cycle.
type Kind int

const (
	// KindSquadFormed fires when the multi-task scheduler has generated a
	// kernel squad: members, per-member kernel ranges, and the reason squad
	// generation stopped (kernel cap, pace-guard duration cap, request end,
	// endgame flush, or backlog drained).
	KindSquadFormed Kind = iota
	// KindConfigChosen fires when the execution-configuration determiner has
	// picked SP / NSP / Semi-SP for the squad, with the predicted duration
	// and the number of configurations evaluated.
	KindConfigChosen
	// KindContextSwitch fires when a client's kernel launches are redirected
	// to a different GPU context, opening the ~50us MPS redirection vacuum
	// (§6.9). Reason says which way: "restrict" (default -> SM-restricted),
	// "unrestrict" (Semi-SP tail back to the default context), or
	// "re-restrict" (between restricted slots).
	KindContextSwitch
	// KindPaceGuardTrip fires when squad generation was cut short by the
	// pace-guard duration cap: a longer squad could have pushed a client
	// behind its quota-isolated pace.
	KindPaceGuardTrip
	// KindEndgameFlush fires when the scheduler elects to finish a nearly
	// done request outright instead of pace-sharing (§4.3.2's alternation
	// payoff).
	KindEndgameFlush
	// KindSquadDone fires when the squad's last kernel retires, carrying the
	// actual measured duration next to the determiner's prediction.
	KindSquadDone
	// KindKernelFault fires when fault injection fails a kernel execution;
	// Reason carries the kernel index and attempt number.
	KindKernelFault
	// KindKernelRetry fires when the runtime relaunches a faulted kernel
	// after backoff; Predicted carries the relaunch instant.
	KindKernelRetry
	// KindRequestAbort fires when the runtime fails a request outright;
	// Reason distinguishes "retries-exhausted" from "deadline".
	KindRequestAbort
	// KindContextFault fires when establishing an SM-restricted context
	// fails and the squad entry degrades to another context.
	KindContextFault
	// KindClientCrash, KindClientJoin and KindClientLeave mark client churn:
	// abrupt teardown, mid-run admission, and graceful drain respectively.
	KindClientCrash
	KindClientJoin
	KindClientLeave
	// KindQuotaReprovision fires per client whose effective quota changed
	// when quotas re-normalized over the live client set after churn.
	KindQuotaReprovision
	// KindRequestAdmitted fires when the runtime accepts a request at
	// Submit: the start of the request's lifecycle span. Seq identifies the
	// request within its client. The timestamp is host-clock stamped (like
	// every scheduler decision); the exact arrival instant is recoverable
	// from the completion event's latency.
	KindRequestAdmitted
	// KindRequestDone fires when a request completes — successfully or
	// aborted (Reason "ok" or "failed") — closing its lifecycle span.
	// Actual carries the request's exact latency (Done - Arrival).
	KindRequestDone
)

// String names the kind for exports and logs.
func (k Kind) String() string {
	switch k {
	case KindSquadFormed:
		return "squad_formed"
	case KindConfigChosen:
		return "config_chosen"
	case KindContextSwitch:
		return "context_switch"
	case KindPaceGuardTrip:
		return "pace_guard_trip"
	case KindEndgameFlush:
		return "endgame_flush"
	case KindSquadDone:
		return "squad_done"
	case KindKernelFault:
		return "kernel_fault"
	case KindKernelRetry:
		return "kernel_retry"
	case KindRequestAbort:
		return "request_abort"
	case KindContextFault:
		return "context_fault"
	case KindClientCrash:
		return "client_crash"
	case KindClientJoin:
		return "client_join"
	case KindClientLeave:
		return "client_leave"
	case KindQuotaReprovision:
		return "quota_reprovision"
	case KindRequestAdmitted:
		return "request_admitted"
	case KindRequestDone:
		return "request_done"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// SquadMember is one client's contribution to a squad, as seen by observers.
type SquadMember struct {
	// Client is the application name.
	Client string
	// From and To bound the member's kernel index range [From, To).
	From, To int
	// SMs is the member's SM grant under a spatial configuration (0 when
	// unrestricted).
	SMs int
}

// Event is one runtime decision, stamped with virtual time. Which fields are
// meaningful depends on Kind; unused fields are zero.
type Event struct {
	// At is the virtual time of the decision.
	At sim.Time
	// Kind classifies the event.
	Kind Kind
	// Squad is the 1-based sequence number of the squad the event belongs
	// to (0 when not squad-scoped).
	Squad int64
	// Client is the affected application name ("" when squad-wide).
	Client string
	// Mode is the chosen execution configuration ("NSP", "SP", "Semi-SP")
	// for KindConfigChosen and KindSquadDone.
	Mode string
	// Reason carries the squad stop reason, the context-switch direction, or
	// the pace-guard trigger.
	Reason string
	// Predicted is the determiner's estimated squad duration; Actual the
	// measured one (KindSquadDone).
	Predicted, Actual sim.Time
	// Considered counts configurations evaluated (KindConfigChosen).
	Considered int
	// Seq is the client-local request sequence number for request-scoped
	// events (admission, completion, kernel faults/retries, aborts). It is
	// only meaningful when RequestScoped(Kind) is true — Seq 0 is a valid
	// first request, so Kind, not Seq, decides request scope.
	Seq int
	// Device names the emitting device in multi-GPU (cluster) runs; empty
	// on single-device runs. Exporters use it to split lanes per device.
	Device string
	// Members lists the squad composition (KindSquadFormed).
	Members []SquadMember
}

// RequestScoped reports whether events of this kind carry a meaningful Seq,
// i.e. belong to one request's lifecycle rather than to a squad or client.
func (k Kind) RequestScoped() bool {
	switch k {
	case KindRequestAdmitted, KindRequestDone, KindKernelFault, KindKernelRetry, KindRequestAbort:
		return true
	}
	return false
}

// Subscriber receives published events. Publish runs synchronously inside
// the simulation loop; implementations must not mutate scheduler or device
// state and should be fast.
type Subscriber interface {
	Publish(ev Event)
}

// SubscriberFunc adapts a function to the Subscriber interface.
type SubscriberFunc func(ev Event)

// Publish implements Subscriber.
func (f SubscriberFunc) Publish(ev Event) { f(ev) }

// Bus fans decision events out to any number of subscribers, generalizing
// the old single-tracer pattern. A nil *Bus is valid and drops everything,
// so emitters need no nil checks beyond calling through the pointer.
//
// The bus self-accounts: it always counts delivered events, and with
// SelfAccount(true) it additionally wall-clocks the subscriber fan-out —
// extending the §6.9 overhead attribution to the tracing layer itself. The
// accounting is out-of-band (no virtual time is charged), so attaching
// subscribers never perturbs the simulation: digests are bit-identical with
// tracing on or off.
type Bus struct {
	subs []Subscriber

	account  bool
	emitted  int64
	wallNano int64
}

// NewBus returns an empty bus.
func NewBus() *Bus { return &Bus{} }

// Subscribe attaches a subscriber; nil subscribers are ignored.
func (b *Bus) Subscribe(s Subscriber) {
	if b != nil && s != nil {
		b.subs = append(b.subs, s)
	}
}

// Enabled reports whether any subscriber is attached: emitters can skip
// building expensive event payloads (member slices) when false.
func (b *Bus) Enabled() bool { return b != nil && len(b.subs) > 0 }

// Emit publishes the event to all subscribers in attachment order. Safe on a
// nil bus.
func (b *Bus) Emit(ev Event) {
	if b == nil || len(b.subs) == 0 {
		return
	}
	b.emitted++
	if b.account {
		start := time.Now()
		for _, s := range b.subs {
			s.Publish(ev)
		}
		b.wallNano += time.Since(start).Nanoseconds()
		return
	}
	for _, s := range b.subs {
		s.Publish(ev)
	}
}

// SelfAccount toggles wall-clock measurement of the subscriber fan-out.
// Event counting is always on; the timer costs two monotonic clock reads per
// event, so it is opt-in. Safe on a nil bus (no-op).
func (b *Bus) SelfAccount(on bool) {
	if b != nil {
		b.account = on
	}
}

// BusCost is the bus's self-measured publication cost.
type BusCost struct {
	// Events counts events delivered to at least one subscriber.
	Events int64
	// WallNS is real (not virtual) time spent inside subscriber fan-out,
	// accumulated only while SelfAccount is on.
	WallNS int64
}

// Cost returns the accumulated self-accounting. Safe on a nil bus.
func (b *Bus) Cost() BusCost {
	if b == nil {
		return BusCost{}
	}
	return BusCost{Events: b.emitted, WallNS: b.wallNano}
}

// Observable is implemented by schedulers that can emit decision events;
// the harness uses it to attach a bus without widening the
// sharing.Scheduler contract. Observe must be called before Deploy.
type Observable interface {
	Observe(bus *Bus)
}
