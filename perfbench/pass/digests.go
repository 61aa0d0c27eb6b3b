package pass

// Recorded digests of pass 0 (seed 2006) of the two batch workloads.
const (
	recordedPaperCSV   = "6f12b526b026a2efb573d6a169844c7b13a4c280d6979e87bc3ce7cbd415233f"
	recordedPaperExact = "0e53da098872a69637158f4ff3ee16cfd419f9222de54c58510e85191b6ca302"
	recordedExtCSV     = "8f5bf276d8a92ce2f1cab342dfcb0f25af1857786632724987d4f4228c21e735"
	recordedExtExact   = "3281cf029a3ec57e5d4a438bdf0b2b634e650ffa58f54005e89699aa6377a541"
)
