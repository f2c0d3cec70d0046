// Dynamic: the paper's deployment story. A real grid never sees a static
// batch: jobs arrive continuously and machines come and go. The paper
// proposes running the batch cMA periodically over the jobs that arrived
// since its last activation. This example simulates exactly that with the
// discrete-event grid simulator and contrasts the cMA policy against
// Min-Min and opportunistic load balancing under machine churn.
package main

import (
	"fmt"
	"log"

	"gridcma"
)

func main() {
	cfg := gridcma.DefaultSimConfig()
	cfg.Horizon = 2000
	cfg.ArrivalRate = 1.5 // a loaded grid
	cfg.JoinRate, cfg.LeaveRate = 0.005, 0.005

	// The cMA as a dynamic policy: a short iteration budget per
	// activation keeps each planning step "very short" (paper §1).
	cmaCfg := gridcma.DefaultCMAConfig()
	ls, err := gridcma.LocalSearch("LMCTS-sampled")
	if err != nil {
		log.Fatal(err)
	}
	cmaCfg.LocalSearch = ls
	sched, err := gridcma.NewCMA(cmaCfg)
	if err != nil {
		log.Fatal(err)
	}
	// BatchPolicy takes any Scheduler — dynamic-grid policies and batch
	// runs share the one interface.
	cmaPolicy, err := gridcma.BatchPolicy("cMA", sched, gridcma.Budget{MaxIterations: 10})
	if err != nil {
		log.Fatal(err)
	}

	policies := []gridcma.SimPolicy{cmaPolicy}
	for _, h := range []string{"minmin", "olb", "ljfr-sjfr"} {
		p, err := gridcma.HeuristicPolicy(h)
		if err != nil {
			log.Fatal(err)
		}
		policies = append(policies, p)
	}

	fmt.Printf("dynamic grid: horizon %.0f, arrival rate %.1f, %d initial machines, churn %.3f\n\n",
		cfg.Horizon, cfg.ArrivalRate, cfg.InitialMachines, cfg.LeaveRate)
	fmt.Printf("%-10s %10s %9s %11s %9s %7s\n",
		"policy", "completed", "restarts", "response", "wait", "util")
	for _, p := range policies {
		m, err := gridcma.Simulate(cfg, p)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-10s %5d/%4d %9d %11.2f %9.2f %6.1f%%\n",
			p.Name(), m.JobsCompleted, m.JobsArrived, m.JobsRestarted,
			m.MeanResponse, m.MeanWait, 100*m.Utilization)
	}
	fmt.Println("\nlower response/wait is better; the cMA buys QoS with planning time")
}
