package burst

// PendingDrains reports queued (not yet drained) requests.
func (p *Pool) PendingDrains() int {
	n := 0
	for _, px := range p.proxies {
		n += len(px.queue)
	}
	return n
}
