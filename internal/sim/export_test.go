package sim

// CoreSteps returns the number of core-steps every run on g has taken, for
// tests that check how much the event-driven clock skips.
func (g *GPU) CoreSteps() uint64 { return g.coreSteps.Load() }
