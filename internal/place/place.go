// Package place is the compute/data placement planner: for every offload
// request it decides whether to move the compute to the data (ship the
// BitCODE, the paper's headline mechanism), move the data to the compute
// (an RDMA-style pull of the operand region, local execution and an
// optional put-back), or run in place when the data is already local.
//
// The paper hard-codes the first answer — `Runtime.Send` always ships
// code — but on a heterogeneous testbed the right answer varies per
// request: a 26-byte cached ifunc frame against a wimpy DPU core, or a
// multi-KiB uncached archive plus a millisecond JIT against a region a
// GET would fetch in two microseconds. The planner prices the three
// routes with a calibrated cost model (cost.go) fed by the fabric's
// LogGP parameters, per-node µarch step pricing, the registration
// amortization state of the caching protocol, and the decayed
// per-registration mean-steps estimate the drain ordering already
// maintains (ifunc.Registration.MeanSteps) — and picks the cheapest.
//
// Everything the model consumes is virtual-time state, so decisions are
// deterministic across runs and execution engines (step counts are
// engine-invariant by the differential contract).
package place

import (
	"fmt"

	"threechains/internal/sim"
)

// Policy selects how offload requests are routed.
type Policy int

const (
	// PolicyCostModel prices every route per request and takes the
	// cheapest — the planner's reason to exist.
	PolicyCostModel Policy = iota
	// PolicyShipCode always moves the compute to the data (the paper's
	// static baseline: an ifunc send).
	PolicyShipCode
	// PolicyPullData always moves the data to the compute (GET + local
	// execution + optional put-back), falling back to ship-code when the
	// pull leg is not viable for a request (oversized region).
	PolicyPullData
	// PolicyLocal requires the data to already be local; offloads to a
	// remote destination are rejected.
	PolicyLocal
	// PolicyCostModelQueue prices every route with queueing terms: the
	// planner tracks per-resource busy-until horizons (local core, each
	// destination's core, local NIC in/out) from its own committed
	// decisions and adds the modeled wait to each route estimate, so a
	// burst of in-flight requests load-balances across ship/pull instead
	// of herd-routing to whichever route is cheapest at zero load. With
	// no requests in flight (all horizons expired) it decides exactly
	// like PolicyCostModel.
	PolicyCostModelQueue
)

// String names the policy as reports print it.
func (p Policy) String() string {
	switch p {
	case PolicyCostModel:
		return "cost-model"
	case PolicyShipCode:
		return "ship-code"
	case PolicyPullData:
		return "pull-data"
	case PolicyLocal:
		return "local"
	case PolicyCostModelQueue:
		return "cost-model-queue"
	default:
		return fmt.Sprintf("policy(%d)", int(p))
	}
}

// Route is the transport decision for one offload request.
type Route int

const (
	// RouteShipCode sends the ifunc to the data's node.
	RouteShipCode Route = iota
	// RoutePullData fetches the operand region, executes locally and
	// optionally writes the region back.
	RoutePullData
	// RouteLocal executes in place (the data already lives here).
	RouteLocal
)

// String names the route.
func (r Route) String() string {
	switch r {
	case RouteShipCode:
		return "ship"
	case RoutePullData:
		return "pull"
	case RouteLocal:
		return "local"
	default:
		return fmt.Sprintf("route(%d)", int(r))
	}
}

// Request is one offload decision's inputs, pre-digested by the runtime:
// everything is plain virtual-time state, so Decide is a pure function
// of the request and the model.
type Request struct {
	// DstIsLocal marks the degenerate case: the operand region lives on
	// the requesting node.
	DstIsLocal bool
	// Dst is the destination node id (the queueing policy keys its
	// per-destination core horizon by it).
	Dst int
	// Now is the virtual time the request is issued at — the reference
	// point the queueing policy measures its busy-until horizons against.
	// Horizons in the past cost nothing, so an idle planner prices
	// exactly like the zero-load model.
	Now sim.Time
	// PayloadLen is the message payload size in bytes.
	PayloadLen int
	// DataBytes is the operand region size in bytes.
	DataBytes int
	// WriteBack reports whether the kernel mutates the region (the pull
	// route must pay a put-back).
	WriteBack bool
	// PutBytes is the predicted write-back PUT payload: the measured
	// delta (dirty segments + descriptors, Registration.MeanPutBytes)
	// when the type has pulled before, the whole region otherwise.
	// 0 means unknown — the model falls back to DataBytes.
	PutBytes int
	// GetBytes is kept only because benchmark/ reads it; no program code sets or reads it.
	GetBytes int
	// TypeHash identifies the ifunc type for the planner's per-(type,
	// dst) demand tracking (investment-aware ship amortization). 0
	// disables the tracking for this request.
	TypeHash uint64
	// ShipFanout is the modeled future fan-out a cold remote
	// registration would serve — Plan fills it from the planner's
	// committed demand for this (type, dst) pair, and the model divides
	// RemoteRegCost by it (the same amortization argument LocalRegFanout
	// makes for the pull route's compile investment, but driven by
	// observed demand instead of cluster size). 0 means 1: no
	// amortization.
	ShipFanout int
	// FrameBytes is the exact wire size of the ship-code frame — the
	// truncated form when the sender cache says dst already holds the
	// code, the full frame otherwise (the caching protocol's
	// amortization state).
	FrameBytes int
	// RemoteRegistered reports whether the module is already registered
	// (code interned, JIT done) at the destination.
	RemoteRegistered bool
	// LocalRegistered is the same for the requesting node (the pull
	// route executes here).
	LocalRegistered bool
	// RemoteRegCost and LocalRegCost are the one-time registration
	// charges (JIT compile or binary load) on each side when the module
	// is not yet registered there.
	RemoteRegCost sim.Time
	LocalRegCost  sim.Time
	// LocalRegFanout is the number of destinations a local registration
	// can serve (cluster size minus one). A remote registration only ever
	// serves offloads to that one destination, while the local artifact
	// the pull route compiles serves offloads to every peer — so the
	// model amortizes LocalRegCost over this fan-out (the
	// speed-proportional allocation argument of the heterogeneous coded
	// computing literature, applied to compile investment). 0 means 1.
	LocalRegFanout int
	// MeanSteps is the best available per-message dynamic step estimate:
	// the decayed Registration.MeanSteps when the type has executed
	// somewhere, a static prediction from the module otherwise.
	MeanSteps float64
	// Measured reports whether MeanSteps is a real execution measurement
	// (any node's decayed estimate) rather than a static code-size
	// prediction. Static predictions cannot see loops, so the cost-model
	// policy routes unmeasured types through the pull leg when it can:
	// the first execution runs on the local core (bounding the damage a
	// misprediction can do on a slow remote) and seeds the decayed
	// estimate every later decision for the type will price.
	Measured bool
	// StaticBound reports that an unmeasured MeanSteps came from the
	// static verifier's dataflow analysis — a proven per-activation step
	// bound for acyclic, call-free code — rather than a blind code-size
	// guess. The explore-via-pull detour exists to bound the damage of a
	// misprediction; a proven bound carries no such risk, so statically
	// bounded types are priced like measured ones from the first message.
	StaticBound bool
	// PullViable reports whether the pull leg can run at all (region
	// fits the local staging arena, a remote key is known, and — for
	// binary handles — code for the local architecture exists).
	PullViable bool
	// ShipViable reports whether the ship leg can run at all: a binary
	// handle with no object for the destination's architecture cannot be
	// shipped, and the planner must route around it (not price the
	// impossible registration as free).
	ShipViable bool
}

// claims are the absolute busy-until horizons that committing a decision
// establishes on the issuing node's resources (queueing policy only; a
// zero field leaves that horizon untouched).
type claims struct {
	nicOut, nicIn, localCore, remoteCore sim.Time
}

// Decision is one routing decision with the estimates that produced it
// (estimates are zero for forced policies, which never price routes).
type Decision struct {
	Route Route
	// Dst is the destination node the request addressed (the queueing
	// policy applies the remote-core claim to it at commit).
	Dst int
	// EstShip and EstPull are the modeled route times. PolicyCostModel
	// sets them only when it compared the routes (Priced);
	// PolicyCostModelQueue sets each viable route's estimate always —
	// it needs the pricing for its horizon claims even on explore and
	// single-viable-route decisions.
	EstShip, EstPull sim.Time
	// Priced reports whether the estimates actually decided the route
	// (PolicyCostModel's priced branch, or PolicyCostModelQueue with
	// both routes viable and a measured step estimate).
	Priced bool
	// Fallback marks a pull-policy request that had to ship because the
	// pull leg was not viable.
	Fallback bool
	// claims carries the chosen route's resource occupancy; Commit folds
	// it into the planner's horizons.
	claims claims
	// typeHash carries Request.TypeHash so Commit can record demand for
	// the (type, dst) pair — the observation stream behind the
	// investment-aware ship amortization.
	typeHash uint64
}

// Stats counts planner activity per route.
type Stats struct {
	Ship, Pull, Local uint64
	// Fallbacks counts pull-policy requests that had to ship because the
	// pull leg was not viable.
	Fallbacks uint64
}

// queueState is the queueing policy's view of the issuing node's
// resources: the absolute virtual time each one is modeled busy until,
// built exclusively from the planner's own committed decisions (the
// planner never observes the fabric — horizons in the past simply expire
// against Request.Now).
type queueState struct {
	nicOut, nicIn, localCore sim.Time
	remoteCore               []sim.Time
}

func (q *queueState) remote(dst int) sim.Time {
	if dst >= 0 && dst < len(q.remoteCore) {
		return q.remoteCore[dst]
	}
	return 0
}

func (q *queueState) setRemote(dst int, t sim.Time) {
	for len(q.remoteCore) <= dst {
		q.remoteCore = append(q.remoteCore, 0)
	}
	q.remoteCore[dst] = t
}

// Planner routes offload requests on one node. Policy is the default for
// Decide; per-request policies go through Plan/Commit without touching
// it. Stats and OnCommit observe committed (actually launched) decisions
// only, so the route mix the benchmarks report never counts a request
// whose route then failed to launch.
type Planner struct {
	Policy Policy
	// OnCommit, when set, observes every committed decision in order —
	// the single decision-trace hook (the runtime wires it into the obs
	// span layer; differential tests collect and compare the streams
	// across runs and engines). Nil costs one compare per commit.
	OnCommit func(Decision)
	Stats    Stats

	queue queueState
	// demand counts committed remote decisions per (type, dst) pair.
	// Plan feeds it into Request.ShipFanout so a cold remote
	// registration is amortized over the demand the pair has actually
	// shown (never iterated, so no map-order nondeterminism).
	demand map[demandKey]uint32
}

// demandKey identifies a (type, destination) pair for the planner's
// investment tracking.
type demandKey struct {
	hash uint64
	dst  int
}

// investCap bounds the fan-out a speculative cold ship may amortize
// over: past ~16 observed messages the per-message registration share is
// already noise next to wire and execution terms, and an unbounded
// divisor would let a hot pair price a multi-millisecond JIT at zero.
const investCap = 16

// shipFanout is the modeled future fan-out a remote registration at
// req.Dst would serve: this request plus the committed demand already
// observed for the (type, dst) pair, capped at investCap. Types that opt
// out of tracking (TypeHash 0) get no amortization.
func (p *Planner) shipFanout(req Request) int {
	if req.TypeHash == 0 {
		return 1
	}
	n := 1 + int(p.demand[demandKey{req.TypeHash, req.Dst}])
	if n > investCap {
		n = investCap
	}
	return n
}

// ErrRemoteLocal is returned when PolicyLocal meets a remote region.
var ErrRemoteLocal = fmt.Errorf("place: PolicyLocal offload to a remote region")

// ErrBadPolicy is returned for policy values outside the defined set.
var ErrBadPolicy = fmt.Errorf("place: unknown policy")

// ErrShipUnviable is returned when a forced ship-code route cannot work
// (binary handle with no object for the destination architecture).
var ErrShipUnviable = fmt.Errorf("place: ship-code route not viable for destination")

// ErrNoViableRoute is returned when neither ship nor pull can serve a
// remote request.
var ErrNoViableRoute = fmt.Errorf("place: no viable route for request")

// Decide routes one request under the planner's configured policy and
// immediately commits it — the single-phase form for callers whose
// launch cannot fail. Callers that may still abort the route (the
// runtime: frame build, local registration) use Plan and call Commit
// only once the route is actually launched.
func (p *Planner) Decide(m CostModel, req Request) (Decision, error) {
	d, err := p.Plan(p.Policy, m, req)
	if err != nil {
		return Decision{}, err
	}
	p.Commit(d)
	return d, nil
}

// Plan routes one request under an explicit per-request policy without
// recording anything: no stats, no trace, no horizon movement, and no
// change to the planner's configured Policy. It is deterministic and
// side-effect free — the same request against the same model and horizon
// state always yields the same decision.
func (p *Planner) Plan(pol Policy, m CostModel, req Request) (Decision, error) {
	if pol < PolicyCostModel || pol > PolicyCostModelQueue {
		return Decision{}, fmt.Errorf("%w: %d", ErrBadPolicy, int(pol))
	}
	// Resolve the investment fan-out from committed demand before any
	// pricing (planQueued inherits it through req). Reading the demand
	// map keeps Plan side-effect free; only Commit moves it.
	req.ShipFanout = p.shipFanout(req)
	d := Decision{Dst: req.Dst, typeHash: req.TypeHash}
	switch {
	case req.DstIsLocal:
		// Every policy degenerates to in-place execution when the data
		// already lives here: no transport can beat none.
		d.Route = RouteLocal
		if pol == PolicyCostModelQueue {
			d.claims = m.localQueued(req, &p.queue)
		}
	case pol == PolicyLocal:
		return Decision{}, ErrRemoteLocal
	case pol == PolicyShipCode:
		if !req.ShipViable {
			return Decision{}, ErrShipUnviable
		}
		d.Route = RouteShipCode
	case pol == PolicyPullData:
		switch {
		case req.PullViable:
			d.Route = RoutePullData
		case req.ShipViable:
			d.Route = RouteShipCode
			d.Fallback = true
		default:
			return Decision{}, ErrNoViableRoute
		}
	case pol == PolicyCostModelQueue:
		return p.planQueued(m, req)
	case !req.ShipViable:
		// PolicyCostModel with an unshippable module: the cost of a route
		// that cannot work is not 0, it is infinite — route around it.
		if !req.PullViable {
			return Decision{}, ErrNoViableRoute
		}
		d.Route = RoutePullData
	case !req.Measured && !req.StaticBound && req.PullViable:
		// PolicyCostModel, never-executed type with no static bound:
		// explore via pull (see Request.Measured / Request.StaticBound).
		d.Route = RoutePullData
	default: // PolicyCostModel
		d.EstShip = m.ShipCost(req)
		d.EstPull = m.PullCost(req)
		d.Priced = true
		d.Route = RouteShipCode
		if req.PullViable && d.EstPull < d.EstShip {
			d.Route = RoutePullData
		}
	}
	return d, nil
}

// planQueued is the PolicyCostModelQueue branch of Plan: price both
// viable routes against the current busy-until horizons and keep the
// chosen route's resource claims in the decision for Commit.
func (p *Planner) planQueued(m CostModel, req Request) (Decision, error) {
	d := Decision{Dst: req.Dst, typeHash: req.TypeHash}
	var shipC, pullC claims
	if req.ShipViable {
		d.EstShip, shipC = m.shipQueued(req, &p.queue)
	}
	if req.PullViable {
		d.EstPull, pullC = m.pullQueued(req, &p.queue)
	}
	switch {
	case !req.ShipViable && !req.PullViable:
		return Decision{}, ErrNoViableRoute
	case !req.ShipViable:
		d.Route = RoutePullData
	case !req.PullViable:
		d.Route = RouteShipCode
	case !req.Measured && !req.StaticBound:
		// The explore-then-exploit rule of PolicyCostModel, unchanged:
		// the first execution of a type runs on the local core.
		d.Route = RoutePullData
	default:
		d.Priced = true
		d.Route = RouteShipCode
		if d.EstPull < d.EstShip {
			d.Route = RoutePullData
		}
	}
	if d.Route == RoutePullData {
		d.claims = pullC
	} else {
		d.claims = shipC
	}
	return d, nil
}

// Commit records a planned decision whose route has actually been
// launched: route-mix stats, the OnCommit observation, and — for the
// queueing policy — the chosen route's busy-until claims. A planned
// decision that is never committed leaves no trace anywhere, so launch
// failures (frame build, local registration) cannot skew the route mix
// or the horizons.
func (p *Planner) Commit(d Decision) {
	switch d.Route {
	case RouteShipCode:
		p.Stats.Ship++
	case RoutePullData:
		p.Stats.Pull++
	case RouteLocal:
		p.Stats.Local++
	}
	if d.Fallback {
		p.Stats.Fallbacks++
	}
	if d.typeHash != 0 && d.Route != RouteLocal {
		if p.demand == nil {
			p.demand = make(map[demandKey]uint32)
		}
		p.demand[demandKey{d.typeHash, d.Dst}]++
	}
	c := d.claims
	if c.nicOut > p.queue.nicOut {
		p.queue.nicOut = c.nicOut
	}
	if c.nicIn > p.queue.nicIn {
		p.queue.nicIn = c.nicIn
	}
	if c.localCore > p.queue.localCore {
		p.queue.localCore = c.localCore
	}
	if c.remoteCore > p.queue.remote(d.Dst) {
		p.queue.setRemote(d.Dst, c.remoteCore)
	}
	if p.OnCommit != nil {
		p.OnCommit(d)
	}
}
