package gateway

// policy names the gateway's routing policy in its metrics.
const policy = "least-loaded"

// pick chooses the backend for one forwarding attempt. pool holds the
// routable candidates: serving backends the forwarding loop has not
// already tried for this request. The choice is the pool member with
// the lowest load score (backend-reported in-flight + queued work from
// its last readiness probe, plus this gateway's own in-flight count),
// ties broken by name so equal-load choices stay deterministic. Every
// backend serves every request configuration from one engine, so no
// request has a preferred backend. pick returns nil for an empty pool
// and never mutates it; it is safe while probes flip backend states.
func pick(pool []*Backend) *Backend {
	var best *Backend
	var bestScore int64
	for _, b := range pool {
		score := b.LoadScore()
		if best == nil || score < bestScore || (score == bestScore && b.name < best.name) {
			best, bestScore = b, score
		}
	}
	return best
}
