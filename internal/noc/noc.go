// Package noc models the GPU's on-chip interconnection network between the
// SMs' L1 caches and the LLC slices. Two routing disciplines are available
// behind the Network interface (selected by the uarch.Routing variant): the
// paper's bisection-bandwidth-limited Crossbar and a first-order bufferless
// deflection-routed network (Deflect). Two effects matter for scale-model
// simulation and both are modelled:
//
//   - aggregate bisection-bandwidth saturation, which throttles
//     memory-intensive workloads identically (in relative terms) on
//     proportionally scaled systems, and
//   - per-slice contention ("camping"), where many SMs hitting the same LLC
//     slice queue up in front of it — one of the paper's two mechanisms for
//     sub-linear scaling. The crossbar queues campers in front of the port;
//     the bufferless network deflects them into re-circulation instead.
package noc

import (
	"fmt"

	"gpuscale/internal/bandwidth"
	"gpuscale/internal/obs"
)

// Network is the interface the gpu simulator drives, one per memory domain: a
// destination-ported interconnect that schedules transfers and reports
// utilisation. Both Crossbar and Deflect implement it.
type Network interface {
	// Transfer schedules a transfer of bytes to port (LLC slice) at cycle
	// now and returns the delivery cycle. Port indices wrap modulo the
	// port count.
	Transfer(now int64, port, bytes int) int64
	// Ports returns the number of destination ports.
	Ports() int
	// TotalBytes returns the bytes moved through the bisection.
	TotalBytes() uint64
	// BisectionUtilization returns bisection busy-time over elapsed cycles.
	BisectionUtilization(elapsed int64) float64
	// MaxPortBacklog returns the largest per-port congestion measure (in
	// cycles) at cycle now.
	MaxPortBacklog(now int64) float64
	// BisectionBacklog returns the bisection server's queueing delay (in
	// cycles) at cycle now.
	BisectionBacklog(now int64) float64
	// ResetStats clears bandwidth statistics without touching queue state.
	ResetStats()
	// PublishObs stores utilisation and queueing state into the given
	// metrics scope; no-op on a nil scope.
	PublishObs(sc *obs.Scope, elapsed, now int64)
}

// Crossbar is a bisection-bandwidth-limited crossbar with per-destination
// (LLC slice) ports. A transfer must pass both the shared bisection server
// and its destination port's server; its delivery time is the later of the
// two, plus the base traversal latency.
type Crossbar struct {
	bisection   *bandwidth.Server
	ports       []*bandwidth.Server
	baseLatency int64
}

// Config parameterises a Crossbar.
type Config struct {
	// BisectionBytesPerCycle is the bisection bandwidth in bytes/cycle.
	BisectionBytesPerCycle float64
	// Ports is the number of destination ports (LLC slices).
	Ports int
	// PortBytesPerCycle is the per-port service rate. When zero it
	// defaults to BisectionBytesPerCycle / Ports (uniform provisioning).
	PortBytesPerCycle float64
	// BaseLatency is the uncongested traversal latency in cycles.
	BaseLatency int
}

// New constructs a Crossbar.
func New(cfg Config) (*Crossbar, error) {
	if cfg.BisectionBytesPerCycle <= 0 {
		return nil, fmt.Errorf("noc: bisection bandwidth must be positive, got %v", cfg.BisectionBytesPerCycle)
	}
	if cfg.Ports <= 0 {
		return nil, fmt.Errorf("noc: ports must be positive, got %d", cfg.Ports)
	}
	if cfg.BaseLatency < 0 {
		return nil, fmt.Errorf("noc: base latency must be non-negative, got %d", cfg.BaseLatency)
	}
	perPort := cfg.PortBytesPerCycle
	if perPort == 0 {
		perPort = cfg.BisectionBytesPerCycle / float64(cfg.Ports)
	}
	if perPort <= 0 {
		return nil, fmt.Errorf("noc: port bandwidth must be positive, got %v", perPort)
	}
	x := &Crossbar{
		bisection:   bandwidth.MustNewServer(cfg.BisectionBytesPerCycle),
		ports:       make([]*bandwidth.Server, cfg.Ports),
		baseLatency: int64(cfg.BaseLatency),
	}
	for i := range x.ports {
		x.ports[i] = bandwidth.MustNewServer(perPort)
	}
	return x, nil
}

// MustNew is New but panics on error.
func MustNew(cfg Config) *Crossbar {
	x, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return x
}

// Transfer schedules a transfer of bytes to port (LLC slice) at cycle now
// and returns the delivery cycle. Port indices wrap modulo the port count.
func (x *Crossbar) Transfer(now int64, port, bytes int) int64 {
	p := port % len(x.ports)
	if p < 0 {
		p += len(x.ports)
	}
	d1 := x.bisection.Schedule(now, bytes)
	d2 := x.ports[p].Schedule(now, bytes)
	d := d1
	if d2 > d {
		d = d2
	}
	return d + x.baseLatency
}

// Ports returns the number of destination ports.
func (x *Crossbar) Ports() int { return len(x.ports) }

// BaseLatency returns the uncongested traversal latency.
func (x *Crossbar) BaseLatency() int64 { return x.baseLatency }

// TotalBytes returns the bytes moved through the bisection.
func (x *Crossbar) TotalBytes() uint64 { return x.bisection.TotalBytes() }

// BisectionUtilization returns bisection busy-time over elapsed cycles.
func (x *Crossbar) BisectionUtilization(elapsed int64) float64 {
	return x.bisection.Utilization(elapsed)
}

// PortUtilization returns port p's busy-time over elapsed cycles.
func (x *Crossbar) PortUtilization(p int, elapsed int64) float64 {
	return x.ports[p%len(x.ports)].Utilization(elapsed)
}

// ResetStats clears bandwidth statistics (bytes, busy time) on the
// bisection and every port without touching queue state.
func (x *Crossbar) ResetStats() {
	x.bisection.ResetStats()
	for _, p := range x.ports {
		p.ResetStats()
	}
}

// MaxPortBacklog returns the largest backlog (in cycles) across ports at
// cycle now — a direct measure of camping.
func (x *Crossbar) MaxPortBacklog(now int64) float64 {
	var m float64
	for _, p := range x.ports {
		if b := p.Backlog(now); b > m {
			m = b
		}
	}
	return m
}

// BisectionBacklog returns the bisection server's queueing delay (in cycles)
// at cycle now.
func (x *Crossbar) BisectionBacklog(now int64) float64 {
	return x.bisection.Backlog(now)
}

// PublishObs stores the crossbar's link-utilisation and queueing-delay state
// into the given metrics scope: cumulative bytes through the bisection,
// bisection busy fraction over the elapsed measurement window, and the
// bisection / worst-port backlogs at cycle now. No-op on a nil scope.
func (x *Crossbar) PublishObs(sc *obs.Scope, elapsed, now int64) {
	if sc == nil {
		return
	}
	sc.Counter("bytes").Store(x.TotalBytes())
	sc.Gauge("bisection_util").Set(x.BisectionUtilization(elapsed))
	sc.Gauge("bisection_backlog").Set(x.BisectionBacklog(now))
	sc.Gauge("max_port_backlog").Set(x.MaxPortBacklog(now))
}
