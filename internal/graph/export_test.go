package graph

// Test-only views of Tree's internals for the external graph_test suites.

// TreeHistorical runs Tree's heap search with every node pushed: the
// comparison sequence Tree keeps only on its fallback path.
func (s *SSSPScratch) TreeHistorical(src NodeID, dsts []NodeID) {
	s.heapTree(src, dsts, false)
}

// TreeFastUnguarded runs Tree's fast search without the no-absorption
// fallback and returns its largest finalised distance.
func (s *SSSPScratch) TreeFastUnguarded(src NodeID, dsts []NodeID) float64 {
	return s.heapTree(src, dsts, true)
}

// TreeTowardGoal runs only TreeToward's goal search and reports whether it
// answered; when it did not, the labels are unspecified.
func (s *SSSPScratch) TreeTowardGoal(src NodeID, dsts []NodeID, hop []uint8) bool {
	return s.goalSearch(src, dsts, hop)
}

// MinWeight returns the weight lower bound Tree's guard uses (0: unknown).
func (s *SSSPScratch) MinWeight() float64 { return s.minW }

// IsStub reports whether node v (in c's node space) is a stub.
func (c *CSR) IsStub(v NodeID) bool { return c.stub[v] }

// SlotTo returns the head node of each slot, in c's node space.
func (c *CSR) SlotTo() []int32 { return c.slotTo }
