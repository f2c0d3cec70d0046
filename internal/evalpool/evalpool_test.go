package evalpool

import (
	"slices"
	"sync"
	"testing"

	"gridcma/internal/etc"
	"gridcma/internal/rng"
	"gridcma/internal/schedule"
)

func testInstance() *etc.Instance {
	return etc.Generate(etc.Class{Consistency: etc.Consistent, JobHet: etc.Low, MachineHet: etc.Low},
		0, etc.GenerateOptions{Seed: 3, Jobs: 64, Machs: 4})
}

func TestPoolReuse(t *testing.T) {
	p := New(testInstance())
	a := p.Get()
	p.Put(a)
	b := p.Get()
	if a != b {
		t.Fatal("pool did not reuse the returned scratch")
	}
	if len(b.Buf) != p.Instance().Jobs {
		t.Fatalf("buf length %d, want %d", len(b.Buf), p.Instance().Jobs)
	}
	p.Put(nil) // must not panic
}

// TestPoolHandsOutDistinctScratches: scratches checked out at the same
// time are distinct, whether fresh or reused.
func TestPoolHandsOutDistinctScratches(t *testing.T) {
	p := New(testInstance())
	for round := 0; round < 2; round++ {
		seen := map[*Scratch]bool{}
		for i := 0; i < 5; i++ {
			s := p.Get()
			if seen[s] {
				t.Fatalf("round %d: duplicate scratch handed out", round)
			}
			seen[s] = true
		}
		for s := range seen {
			p.Put(s)
		}
	}
}

func TestPoolConcurrentGetPut(t *testing.T) {
	p := New(testInstance())
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				s := p.Get()
				s.Buf[0] = i % p.Instance().Machs
				p.Put(s)
			}
		}()
	}
	wg.Wait()
}

// TestFreshScratchIsWriteOnly pins the contract the engines' first
// writes rely on: a fresh scratch's State is blank, so every read of it,
// and every edit of an evaluation it does not hold yet, panics instead of
// answering from an unbuilt State. A caller that read a fresh scratch
// before writing it would therefore fail every test that runs it.
func TestFreshScratchIsWriteOnly(t *testing.T) {
	in := testInstance()
	s := New(in).Get()
	if s.St.ScheduleView() != nil {
		t.Fatal("fresh scratch holds a schedule")
	}
	o := schedule.DefaultObjective
	for name, read := range map[string]func(){
		"Of":               func() { o.Of(s.St) },
		"Makespan":         func() { s.St.Makespan() },
		"MakespanMachine":  func() { s.St.MakespanMachine() },
		"Assign":           func() { s.St.Assign(0) },
		"Completion":       func() { s.St.Completion(0) },
		"JobsOn":           func() { s.St.JobsOn(0) },
		"Move":             func() { s.St.Move(0, 1) },
		"Swap":             func() { s.St.Swap(0, 1) },
		"SetScheduleDiff":  func() { s.St.SetScheduleDiff(make(schedule.Schedule, in.Jobs)) },
		"CopyFrom source":  func() { schedule.NewState(in, make(schedule.Schedule, in.Jobs)).CopyFrom(s.St) },
		"FitnessAfterMove": func() { s.St.FitnessAfterMove(o, 0, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s on a fresh scratch did not panic", name)
				}
			}()
			read()
		}()
	}

	// Each bulk write brings a fresh scratch to the exact State NewState
	// builds.
	r := rng.New(4)
	base := schedule.NewState(in, schedule.NewRandom(in, r))
	want := schedule.NewRandom(in, r)
	for name, write := range map[string]func(st *schedule.State){
		"SetSchedule":     func(st *schedule.State) { st.SetSchedule(want) },
		"CopyFrom":        func(st *schedule.State) { st.CopyFrom(schedule.NewState(in, want)) },
		"SetScheduleFrom": func(st *schedule.State) { st.SetScheduleFrom(base, want) },
	} {
		st := New(in).Get().St
		write(st)
		ref := schedule.NewState(in, want)
		if !st.ScheduleView().Equal(want) || o.Of(st) != o.Of(ref) || st.Flowtime() != ref.Flowtime() {
			t.Errorf("%s on a fresh scratch: fitness %v, want %v", name, o.Of(st), o.Of(ref))
		}
		for m := 0; m < in.Machs; m++ {
			if !slices.Equal(st.JobsOn(m), ref.JobsOn(m)) || st.Completion(m) != ref.Completion(m) {
				t.Errorf("%s on a fresh scratch: machine %d differs from NewState", name, m)
			}
		}
	}
}

func TestScratchStateUsable(t *testing.T) {
	in := testInstance()
	p := New(in)
	s := p.Get()
	r := rng.New(1)
	sched := schedule.NewRandom(in, r)
	s.St.SetSchedule(sched)
	if !s.St.ScheduleView().Equal(sched) {
		t.Fatal("scratch state did not adopt the schedule")
	}
	if s.St.Makespan() <= 0 {
		t.Fatal("no makespan after SetSchedule")
	}
}

func TestBestTracksImprovementsInPlace(t *testing.T) {
	in := testInstance()
	r := rng.New(9)
	st := schedule.NewState(in, schedule.NewRandom(in, r))
	o := schedule.DefaultObjective

	var b Best
	if b.Ok() || b.Schedule() != nil {
		t.Fatal("zero Best claims a solution")
	}
	f0 := o.Of(st)
	if !b.Note(st, o, f0) {
		t.Fatal("first note must improve")
	}
	firstBuf := b.Schedule()
	if !firstBuf.Equal(st.ScheduleView()) {
		t.Fatal("snapshot mismatch")
	}
	if b.Note(st, o, f0) {
		t.Fatal("equal fitness must not improve")
	}
	if b.Note(st, o, f0+1) {
		t.Fatal("worse fitness must not improve")
	}

	// Mutate the state to something better and note it: the same buffer
	// must be updated in place (no allocation per improvement).
	prevMS := b.Makespan()
	for k := 0; k < 2000 && o.Of(st) >= b.Threshold(); k++ {
		j, m := r.Intn(in.Jobs), r.Intn(in.Machs)
		before := o.Of(st)
		from := st.Assign(j)
		st.Move(j, m)
		if o.Of(st) >= before {
			st.Move(j, from)
		}
	}
	if o.Of(st) >= b.Threshold() {
		t.Skip("could not construct an improvement")
	}
	if !b.Note(st, o, o.Of(st)) {
		t.Fatal("improvement not recorded")
	}
	if &b.Schedule()[0] != &firstBuf[0] {
		t.Fatal("improvement reallocated the snapshot buffer")
	}
	if b.Makespan() == prevMS && b.Flowtime() == 0 {
		t.Fatal("objective components not refreshed")
	}
	if !b.Schedule().Equal(st.ScheduleView()) {
		t.Fatal("snapshot does not match the improved state")
	}
}

// TestBestRecordsAFreshEvaluation walks a state through random moves,
// noting every state at its running fitness, and requires the recorded
// makespan, flowtime and fitness to be a fresh evaluation's of the
// recorded schedule, bit for bit, while the comparisons stay on the
// noted values. The walk must reach states whose running flowtime
// accumulator has drifted from the canonical fold, or it proves nothing.
func TestBestRecordsAFreshEvaluation(t *testing.T) {
	in := etc.Generate(etc.Class{Consistency: etc.Inconsistent, JobHet: etc.High, MachineHet: etc.High},
		0, etc.GenerateOptions{Seed: 5, Jobs: 96, Machs: 8})
	r := rng.New(11)
	st := schedule.NewState(in, schedule.NewRandom(in, r))
	o := schedule.DefaultObjective
	var b Best
	drifted := 0
	for k := 0; k < 5000; k++ {
		st.Move(r.Intn(in.Jobs), r.Intn(in.Machs))
		if st.Flowtime() != st.FoldedFlowtime() {
			drifted++
		}
		fit := o.Of(st)
		rejected := b.Ok() && fit >= b.Threshold()
		if b.Note(st, o, fit) == rejected {
			t.Fatalf("move %d: Note(%v) against threshold %v = %v", k, fit, b.Threshold(), rejected)
		}
		if !rejected && b.Threshold() != fit {
			t.Fatalf("move %d: threshold %v, noted %v", k, b.Threshold(), fit)
		}
		fresh := schedule.NewState(in, b.Schedule())
		if b.Makespan() != fresh.Makespan() || b.Flowtime() != fresh.Flowtime() || b.Fitness() != o.Of(fresh) {
			t.Fatalf("move %d: recorded (%v, %v, %v), fresh evaluation (%v, %v, %v)", k,
				b.Makespan(), b.Flowtime(), b.Fitness(), fresh.Makespan(), fresh.Flowtime(), o.Of(fresh))
		}
	}
	if drifted == 0 {
		t.Fatal("the running flowtime never drifted from the fold: the walk checks nothing")
	}
}
