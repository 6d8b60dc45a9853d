package sweep

import "encoding/hex"

// RoutingKey identifies the plan's dominant timing group — the group with
// the most cells, the earliest in leader order on a tie — as a stable
// string: "<hex timing key>/<workload name>". Two plans that share their
// dominant group simulate the same (deterministic-by-contract) kernel for
// the bulk of their cells, so a fleet router hashing this key sends them to
// the same backend, where the simcache already holds the timing result.
//
// The key is a pure function of the plan, computed without building any
// workload, so the router and a dry-run CLI compute the same answer.
func (p *Plan) RoutingKey() string {
	dominant := p.Groups[0]
	for _, g := range p.Groups {
		if len(g.Cells) > len(dominant.Cells) {
			dominant = g
		}
	}
	leader := dominant.Leader()
	tk := leader.Cfg.TimingKey()
	return hex.EncodeToString(tk[:]) + "/" + leader.Workload.Name
}
