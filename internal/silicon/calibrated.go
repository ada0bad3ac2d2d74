package silicon

import "repro/internal/calib"

// The calibrations every built-in profile is built from, as exact
// literals. TestCalibratedConstants re-runs the solve and prints the
// replacement declarations on any mismatch (DESIGN.md, "Calibrated
// constants").

// calibratedMonths is the test length both target sets span.
const calibratedMonths = 24

// paperCalibration is calib.Calibrate(calib.PaperTargets(), 1000, 16),
// fitted to the paper's Table I averages.
var paperCalibration = calib.Result{
	Lambda:     17.129842047150305,
	Mu:         5.558113551255315,
	TotalDrift: 0.2949204444885254,
	Dispersion: 2.0977401733398438,
	Start: calib.Prediction{
		WCHD:        0.024899999992626116,
		FHW:         0.6270000000000009,
		BCHD:        0.46774199999999955,
		StableRatio: 0.8575489773190752,
		NoiseHmin:   0.030396719744909182,
		PUFHmin:     0.6482104516848519,
	},
	End: calib.Prediction{
		WCHD:        0.02970000433357632,
		FHW:         0.6268302298052456,
		BCHD:        0.4678281856150972,
		StableRatio: 0.8448637833716524,
		NoiseHmin:   0.036263262518936565,
		PUFHmin:     0.6484663325491682,
	},
}

// acceleratedCalibration is calib.Calibrate(calib.AcceleratedTargets(),
// 1000, 16), fitted to the HOST 2014 comparator (paper ref [5]).
var acceleratedCalibration = calib.Result{
	Lambda:     8.006506744106446,
	Mu:         2.6136030311616834,
	TotalDrift: 0.3295149803161621,
	Dispersion: 3.1677627563476562,
	Start: calib.Prediction{
		WCHD:        0.05300000000780749,
		FHW:         0.6270000000000009,
		BCHD:        0.46774199999999955,
		StableRatio: 0.7013019467676405,
		NoiseHmin:   0.06478033393573246,
		PUFHmin:     0.6482104516848519,
	},
	End: calib.Prediction{
		WCHD:        0.0720000137074297,
		FHW:         0.6254420382038532,
		BCHD:        0.46852859010252607,
		StableRatio: 0.6750979315514132,
		NoiseHmin:   0.07728284472306696,
		PUFHmin:     0.6505501554070299,
	},
}
