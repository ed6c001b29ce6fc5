package check

// LiveShadows reports how many address-space shadows c holds.
func LiveShadows(c *Checker) int { return len(c.spaces) }
