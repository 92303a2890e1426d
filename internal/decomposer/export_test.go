package decomposer

// ShownTexts reports how many query texts d keeps a rendering for.
func ShownTexts(d *Decomposer) int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.shown)
}

// MemoGeneration reports the store generation d's memo is at.
func MemoGeneration(d *Decomposer) uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.generation
}
