package silicon

// The checked-in calibrations, for the paper-fidelity envelope in the
// external test package (it runs campaigns through package core, which
// imports this one).
var (
	PaperCalibration       = paperCalibration
	AcceleratedCalibration = acceleratedCalibration
)
