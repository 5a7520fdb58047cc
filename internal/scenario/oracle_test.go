package scenario

import "math"

// capBlocked reports whether server m's storage budget blocks model i
// (the model does not fit the server's capacity even cached alone).
func (ins *Instance) capBlocked(m, i int) bool {
	return ins.capBlock != nil && ins.capBlock[i*ins.serverWords+m>>6]&(1<<uint(m&63)) != 0
}

// latencyS returns T_{m,k,i} in seconds under the average channel (eqs.
// 4–5), +Inf if unreachable: the latency form that the reach masks'
// precomputed threshold test is pinned against.
func (ins *Instance) latencyS(m, k, i int) float64 {
	if ins.serverDown(m) {
		return math.Inf(1) // the serving server is out of service
	}
	if ins.capBlocked(m, i) {
		return math.Inf(1) // the serving server cannot store the model
	}
	sizeBits := ins.sizeBits[i]
	infer := ins.work.InferS(k, i)
	if direct := ins.avgRate[m*ins.NumUsers()+k]; direct > 0 {
		return sizeBits/direct + infer // eq. (4)
	}
	// eq. (5): transfer over the backhaul to the user's best covering
	// server, then over the air. The backhaul rate is the same constant for
	// every server pair, so minimizing over m' means maximizing the
	// downlink rate.
	if ins.bestRelay[k] <= 0 {
		return math.Inf(1) // user covered by no server
	}
	return sizeBits/ins.wcfg.BackhaulBps + sizeBits/ins.bestRelay[k] + infer
}

// hitMass returns u(m,i) without the I2 exclusion (eq. 14 with I2 ≡ 1): the
// expected request mass server m can serve by caching model i.
func (ins *Instance) hitMass(m, i int) float64 {
	var sum float64
	ins.UserMask(m, i).ForEach(func(k int) {
		sum += ins.Prob(k, i)
	})
	return sum
}
