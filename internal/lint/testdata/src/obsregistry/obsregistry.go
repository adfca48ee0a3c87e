// Package metrics (in dir obsregistry) is the golden test for the
// obsdiscipline analyzer's family-registration check: Counter, Gauge,
// and Histogram calls on a metrics Registry must pass a constant name
// in the crossbfs_ namespace and constant, non-empty HELP text.
package metrics

// Registry mimics the dimensional metrics registry shape (a Registry
// type whose package also declares Family).
type Registry struct{}

// Family is one labeled metric family.
type Family struct{}

func (r *Registry) Counter(name, help string, labels ...string) *Family { return &Family{} }
func (r *Registry) Gauge(name, help string, labels ...string) *Family   { return &Family{} }
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...string) *Family {
	return &Family{}
}

// notARegistry has the methods but lives in a package-level type whose
// name is not Registry; calls on it are out of scope.
type notARegistry struct{}

func (n *notARegistry) Counter(name, help string, labels ...string) int { return 0 }

const helpText = "A counter documented through a named constant."

func good(r *Registry) {
	r.Counter("crossbfs_good_total", "A well-registered counter.", "engine")
	r.Gauge("crossbfs_good_gauge", helpText)
	r.Histogram("crossbfs_good_seconds", "A histogram.", []float64{1, 2})
}

func goodOutOfScope(n *notARegistry, name string) {
	n.Counter(name, "") // different receiver type: not a metrics registry
}

func badDynamicName(r *Registry, name string) {
	r.Counter(name, "Dynamic names defeat the schema.") // want `metric family name passed to Registry.Counter is not a compile-time constant`
}

func badNamespace(r *Registry) {
	r.Counter("requests_total", "Missing the repo namespace.") // want `metric family "requests_total" is outside the crossbfs_ namespace`
}

func badCharacters(r *Registry) {
	r.Gauge("crossbfs_bad-name", "Dashes are not metric-name characters.") // want `metric family "crossbfs_bad-name" is outside the crossbfs_ namespace or uses invalid`
}

func badEmptyHelp(r *Registry) {
	r.Counter("crossbfs_undocumented_total", "") // want `metric family registered with empty HELP text`
}

func badDynamicHelp(r *Registry, help string) {
	r.Histogram("crossbfs_h_seconds", help, nil) // want `HELP text passed to Registry.Histogram is not a compile-time constant`
}

func goodSuppressed(r *Registry, name string) {
	//lint:obs-ok experimental family name computed from the shard layout
	r.Counter(name, "Shard-local family.")
}
