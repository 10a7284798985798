package main

import (
	"threechains/internal/core"
	"threechains/internal/sim"
)

// Counter indices. Every entry is a cumulative count read from a stats
// struct the program already exports; a round's activity is the
// difference of two snapshots. storeBytes is a gauge, not a count.
const (
	cEvents = iota
	cVirtPS
	cMsgsSent
	cBytesSent
	cCPUBusyPS
	// cNodeVirtPS is nodes x virtual time, the denominator of mean core
	// utilisation when a world spans several clusters.
	cNodeVirtPS
	cIfuncsSent
	cFullFrames
	cTruncFrames
	cHashRefFrames
	cExecutions
	cExecErrors
	cDropped
	cVerifyRejects
	cJITCompiles
	cBinaryLoads
	cGuestSends
	cDrains
	cGroupRuns
	cRegionElides
	cRegionDeltas
	cPullGet
	cPullGetFull
	cPutBytes
	cPutFull
	cPolls
	cFrames
	cStorePuts
	cStoreHits
	cStoreEvictions
	cStoreBytes
	cShip
	cPull
	cLocal
	cFallbacks
	cJITCacheHits
	cJITInstrs
	// cSteps is filled by the worlds from Registration.TotalSteps.
	cSteps
	numCounters
)

// counters is one snapshot of every count, summed over nodes.
type counters [numCounters]uint64

func (c *counters) add(o *counters) {
	for i := range c {
		c[i] += o[i]
	}
}

// sub returns c - o. storeBytes, a gauge, keeps c's value.
func (c counters) sub(o counters) counters {
	for i := range c {
		if i != cStoreBytes {
			c[i] -= o[i]
		}
	}
	return c
}

// clusterCounters sums the exported stats of every node of cl. Virtual
// time is the cluster's clock.
func clusterCounters(cl *core.Cluster) counters {
	var c counters
	c[cEvents] = cl.Eng.Executed()
	c[cVirtPS] = uint64(cl.Eng.Now())
	c[cNodeVirtPS] = uint64(len(cl.Runtimes)) * uint64(cl.Eng.Now())
	for _, rt := range cl.Runtimes {
		ns := &rt.Node.Stats
		c[cMsgsSent] += ns.MsgsSent
		c[cBytesSent] += ns.BytesSent
		c[cCPUBusyPS] += uint64(ns.CPUBusy)

		rs := &rt.Stats
		c[cIfuncsSent] += rs.IfuncsSent
		c[cFullFrames] += rs.FullFrames
		c[cTruncFrames] += rs.TruncatedFrames
		c[cHashRefFrames] += rs.HashRefFrames
		c[cExecutions] += rs.Executions
		c[cExecErrors] += rs.ExecErrors
		c[cDropped] += rs.DroppedFrames
		c[cVerifyRejects] += rs.VerifyRejects
		c[cJITCompiles] += rs.JITCompiles
		c[cBinaryLoads] += rs.BinaryLoads
		c[cGuestSends] += rs.GuestSends
		c[cDrains] += rs.Drains
		c[cGroupRuns] += rs.GroupRuns
		c[cRegionElides] += rs.RegionElides
		c[cRegionDeltas] += rs.RegionDeltaPulls
		c[cPullGet] += rs.PullGetBytes
		c[cPullGetFull] += rs.PullGetFullBytes
		c[cPutBytes] += rs.WriteBackPutBytes
		c[cPutFull] += rs.WriteBackFullBytes

		c[cPolls] += rt.Worker.Stats.IfuncPolls
		c[cFrames] += rt.Worker.Stats.IfuncFrames

		ss := &rt.Store.Stats
		c[cStorePuts] += ss.Puts
		c[cStoreHits] += ss.Hits
		c[cStoreEvictions] += ss.Evictions
		c[cStoreBytes] += uint64(rt.Store.Bytes())

		ps := &rt.Planner.Stats
		c[cShip] += ps.Ship
		c[cPull] += ps.Pull
		c[cLocal] += ps.Local
		c[cFallbacks] += ps.Fallbacks

		c[cJITCacheHits] += uint64(rt.Session.Stats.CacheHits)
		c[cJITInstrs] += uint64(rt.Session.Stats.InstrsCompiled)
	}
	return c
}

// ratio is a/b, and 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// micros converts picoseconds of virtual time to microseconds.
func micros(ps uint64) float64 { return sim.Time(ps).Micros() }
