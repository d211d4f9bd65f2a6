package server

// RetainedIDs lists the device IDs m holds beyond the requests that brought
// them: the registry's, and the keys of every job's in-flight map. The
// lifetime test (package server_test) compares them with what was sent.
func (m *Manager) RetainedIDs() (registry, inFlight []string) {
	for id := range m.reg.all() {
		registry = append(registry, id)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, mj := range m.jobs {
		for id := range mj.inFlight {
			inFlight = append(inFlight, id)
		}
	}
	return registry, inFlight
}
