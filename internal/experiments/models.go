package experiments

import (
	"fmt"
	"sort"
)

// Calibrate runs the calibration phase for one named application and
// returns its QoS model (a *model.LoopModel or *model.FuncModel, both
// json.Marshaler). This is the programmatic face of cmd/greencal.
func Calibrate(app string, o Options) (any, error) {
	o = o.withDefaults()
	var sw *sweep
	var err error
	switch app {
	case "search":
		f, ferr := newSearchFixture(o)
		if ferr != nil {
			return nil, ferr
		}
		sw, err = f.calibrationSweep(f.calQueries)
	case "eon":
		sw, err = newEonFixture(o).sweep()
	case "cga":
		_, sw, err = cgaSweep(o)
	case "exp":
		return newBSFixture(o).calibrateExp()
	case "log":
		return newBSFixture(o).calibrateLog()
	default:
		return nil, fmt.Errorf("experiments: unknown app %q (have %v)",
			app, CalibratableApps())
	}
	if err != nil {
		return nil, err
	}
	return sw.model()
}

// CalibratableApps lists the applications Calibrate accepts.
func CalibratableApps() []string {
	apps := []string{"search", "eon", "cga", "exp", "log"}
	sort.Strings(apps)
	return apps
}
