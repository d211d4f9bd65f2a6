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

// ShadowDeviceIDs lists the device IDs in the named shadow's mirror, once the
// runner has applied every event offered before the call. The mirror belongs
// to the runner's goroutine: filling its queue with one empty batch more than
// it holds means the first of them was received, so everything ahead of it
// was applied, and nothing writes the mirror afterwards unless traffic
// continues.
func (m *Manager) ShadowDeviceIDs(name string) []string {
	for _, sr := range m.shadows {
		if sr.name != name {
			continue
		}
		for i := 0; i <= cap(sr.events); i++ {
			sr.events <- nil
		}
		ids := make([]string, 0, len(sr.devs))
		for id := range sr.devs {
			ids = append(ids, id)
		}
		return ids
	}
	return nil
}
