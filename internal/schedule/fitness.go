package schedule

// DefaultLambda is the makespan weight the paper fixed after tuning
// (Table 1): fitness = 0.75·makespan + 0.25·mean_flowtime.
const DefaultLambda = 0.75

// Objective is the paper's scalarised bi-objective fitness. The zero value
// is invalid; use NewObjective or take DefaultObjective.
type Objective struct {
	// Lambda weighs makespan against mean flowtime; both are expressed in
	// the same time units, and mean flowtime (flowtime / nb_machines)
	// keeps the two terms on comparable magnitudes.
	Lambda float64
}

// DefaultObjective is the tuned objective of the paper.
var DefaultObjective = Objective{Lambda: DefaultLambda}

// Of returns the fitness of an evaluated state. Lower is better.
func (o Objective) Of(st *State) float64 {
	return o.Lambda*st.Makespan() + (1-o.Lambda)*st.MeanFlowtime()
}

// Combine scalarises explicit makespan and mean flowtime values.
func (o Objective) Combine(makespan, meanFlowtime float64) float64 {
	return o.Lambda*makespan + (1-o.Lambda)*meanFlowtime
}
