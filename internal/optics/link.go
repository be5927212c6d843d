package optics

// ElecLinkEnergyPJPerBit returns the Table 1 electrical NoP link energy
// (Poulton et al. GRS link), scaled linearly with link length relative to
// the reference on-package reach — the distance scaling Sec 1 cites as the
// fundamental problem for metallic NoP links.
func ElecLinkEnergyPJPerBit(l LinkParams, lengthMM, referenceMM float64) float64 {
	if referenceMM <= 0 {
		referenceMM = 1
	}
	return l.ElecLinkEnergyPJPerBit * lengthMM / referenceMM
}
