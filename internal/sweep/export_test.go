package sweep

// PlannedTimingKey returns the timing key the plan stored in c.
func PlannedTimingKey(c *Cell) [32]byte { return c.timingKey }
