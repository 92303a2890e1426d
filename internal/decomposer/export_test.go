package decomposer

// ShownTexts reports how many query texts d keeps a rendering for.
func ShownTexts(d *Decomposer) int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.shown)
}
