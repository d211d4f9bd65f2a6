package server

// CheckInBatch is CheckInBatchBuf on a fresh buffer with no span.
func (m *Manager) CheckInBatch(cis []CheckIn) []CheckInResult {
	return m.CheckInBatchBuf(&BatchBuf{CheckIns: cis}, nil)
}

// RetainedIDs lists the device IDs m holds beyond the requests that brought
// them: the registry's, and those of every job's in-flight devices, which
// the in-flight tables key by device number and the registry translates
// back. The lifetime test (package server_test) compares them with what was
// sent.
func (m *Manager) RetainedIDs() (registry, inFlight []string) {
	byDev := map[int32]string{}
	for id, s := range m.reg.all() {
		registry = append(registry, id)
		byDev[s.dev] = id
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, mj := range m.jobs {
		for dev := range mj.inFlight {
			inFlight = append(inFlight, byDev[dev])
		}
	}
	return registry, inFlight
}
