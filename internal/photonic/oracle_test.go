package photonic

import "slices"

// The oracle: the device-by-device propagation the compiled plans replaced,
// kept here and nowhere else. Every walker takes one vector, visits the
// devices in physical order, derives each device's transfer from its
// settings at the moment of use and applies it — nothing shared with
// compile.go but the device models (MZI.Transfer, Attenuator.Amplitude, deviceFault.faultedTransfer). Every plan must match
// it bit for bit: the engine's serial ≡ parallel guarantee and the golden
// digests are stated at the bit level.

// Apply transforms the E-field pair (top, bottom) through the MZI.
func (z MZI) Apply(top, bottom complex128) (complex128, complex128) {
	return applyTransfer(z.Transfer(), top, bottom)
}

func applyTransfer(t [2][2]complex128, top, bottom complex128) (complex128, complex128) {
	return t[0][0]*top + t[0][1]*bottom, t[1][0]*top + t[1][1]*bottom
}

// oracleColumns walks mesh columns [c0, c1).
func oracleColumns(m *Mesh, s []complex128, c0, c1 int) {
	for c := c0; c < c1; c++ {
		for w := c % 2; w <= m.n-2; w += 2 {
			z := m.cols[c][w]
			if z == nil {
				continue
			}
			s[w], s[w+1] = z.Apply(s[w], s[w+1])
		}
	}
}

func oracleScreen(s, d []complex128) {
	for i := range s {
		s[i] *= d[i]
	}
}

// oracleMesh propagates in through every column and the output screen.
func oracleMesh(m *Mesh, in []complex128) []complex128 {
	s := slices.Clone(in)
	oracleColumns(m, s, 0, m.depth)
	oracleScreen(s, m.outPhase)
	return s
}

// oracleFabric propagates in through the left mesh half, the attenuator
// column, the right mesh half and the output screen.
func oracleFabric(f *FlumenMesh, in []complex128) []complex128 {
	s := slices.Clone(in)
	oracleColumns(f.mesh, s, 0, f.n/2)
	for i := range s {
		s[i] *= f.atten[i].Amplitude()
	}
	oracleColumns(f.mesh, s, f.n/2, f.n)
	oracleScreen(s, f.mesh.outPhase)
	return s
}

// oracleLattice walks a lattice's slot settings column by column, each
// device realizing transfer(slot index, setting).
func oracleLattice(s []complex128, slots []MZI, transfer func(i int, z MZI) [2][2]complex128) {
	size := len(s)
	for c := 0; c < size; c++ {
		for w := c % 2; w <= size-2; w += 2 {
			i := c*size + w
			s[w], s[w+1] = applyTransfer(transfer(i, slots[i]), s[w], s[w+1])
		}
	}
}

// oracleSVD propagates in through a program's Fig. 4 lattice — V* slots,
// the Σ·dV column, U slots, U's screen — with the given device models.
func oracleSVD(bp *BlockProgram, in []complex128, v, u func(i int, z MZI) [2][2]complex128) []complex128 {
	s := slices.Clone(in)
	oracleLattice(s, bp.vSlots, v)
	oracleScreen(s, bp.alpha)
	oracleLattice(s, bp.uSlots, u)
	oracleScreen(s, bp.du)
	return s
}

// oracleProgram propagates in through bp's lattice from its slot settings.
func oracleProgram(bp *BlockProgram, in []complex128) []complex128 {
	ideal := func(_ int, z MZI) [2][2]complex128 { return z.Transfer() }
	return oracleSVD(bp, in, ideal, ideal)
}

// oracleCorrupted propagates in through bp's lattice as the devices under
// fi's current fault state realize it.
func oracleCorrupted(fi *FaultInjector, bp *BlockProgram, in []complex128) []complex128 {
	return oracleSVD(bp, in,
		func(i int, z MZI) [2][2]complex128 { return fi.v[i].faultedTransfer(z) },
		func(i int, z MZI) [2][2]complex128 { return fi.u[i].faultedTransfer(z) })
}
