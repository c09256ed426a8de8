package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/clock"
	"repro/internal/region"
)

// streamDriver generates random well-formed event streams against a
// ThreadProfile and tracks a reference model of what must come out.
type streamDriver struct {
	clk  *clock.Manual
	p    *ThreadProfile
	rng  *rand.Rand
	regs []*region.Region // user regions
	task *region.Region
	tw   *region.Region

	// reference model
	totalTaskTime  map[*region.Region]int64
	instanceCount  map[*region.Region]int64
	suspended      []*TaskInstance
	openUserDepth  int
	instancesAlive int
	maxAlive       int
}

func newStreamDriver(seed int64) *streamDriver {
	reg := region.NewRegistry()
	d := &streamDriver{
		clk:           clock.NewManual(0),
		rng:           rand.New(rand.NewSource(seed)),
		task:          reg.Register("task", "s.go", 1, region.Task),
		tw:            reg.Register("tw", "s.go", 2, region.Taskwait),
		totalTaskTime: make(map[*region.Region]int64),
		instanceCount: make(map[*region.Region]int64),
	}
	for i := 0; i < 3; i++ {
		d.regs = append(d.regs, reg.Register("fn"+string(rune('A'+i)), "s.go", 10+i, region.UserFunction))
	}
	d.p = NewThreadProfile(0, d.clk)
	d.p.EnterAt(reg.Register("bar", "s.go", 3, region.ImplicitBarrier), d.clk.Now())
	return d
}

// runTask executes one random task instance to completion (possibly
// spawning nested instances at its taskwait), accumulating the model's
// expected execution time.
func (d *streamDriver) runTask(depth int) {
	ti := d.p.TaskBeginAt(d.task, d.clk.Now())
	d.instancesAlive++
	if d.instancesAlive > d.maxAlive {
		d.maxAlive = d.instancesAlive
	}
	d.instanceCount[d.task]++
	var myTime int64

	steps := d.rng.Intn(4)
	for s := 0; s < steps; s++ {
		switch d.rng.Intn(3) {
		case 0: // plain work
			adv := int64(d.rng.Intn(50))
			d.clk.Advance(adv)
			myTime += adv
		case 1: // enter/exit a user region with work
			r := d.regs[d.rng.Intn(len(d.regs))]
			d.p.EnterAt(r, d.clk.Now())
			adv := int64(d.rng.Intn(30))
			d.clk.Advance(adv)
			myTime += adv
			d.p.ExitAt(r, d.clk.Now())
		case 2: // taskwait with a nested instance (suspension)
			if depth < 4 {
				d.p.EnterAt(d.tw, d.clk.Now())
				w1 := int64(d.rng.Intn(10))
				d.clk.Advance(w1)
				myTime += w1
				d.runTask(depth + 1)                // suspends us; our clock stops
				d.p.TaskSwitchToAt(ti, d.clk.Now()) // runtime resumes us
				w2 := int64(d.rng.Intn(10))
				d.clk.Advance(w2)
				myTime += w2
				d.p.ExitAt(d.tw, d.clk.Now())
			}
		}
	}
	tail := int64(d.rng.Intn(20))
	d.clk.Advance(tail)
	myTime += tail
	d.p.TaskEndAt(d.clk.Now())
	d.instancesAlive--
	d.totalTaskTime[d.task] += myTime
}

// TestRandomStreamsInvariants drives many random event streams and
// checks the paper's core guarantees:
//
//  1. merged task-tree time equals the modelled execution time with all
//     suspension intervals subtracted,
//  2. instance counts match,
//  3. stub time in the implicit tree equals total task time,
//  4. no node anywhere has negative exclusive time,
//  5. the max-concurrent-instances counter matches the model.
func TestRandomStreamsInvariants(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		d := newStreamDriver(seed)
		n := 1 + d.rng.Intn(20)
		for i := 0; i < n; i++ {
			d.runTask(0)
			d.clk.Advance(int64(d.rng.Intn(10))) // waiting between tasks
		}
		// close the barrier and finish
		bar := d.p.cur
		d.p.ExitAt(bar.Region, d.clk.Now())
		d.p.Finish()

		tree := d.p.TaskRoot(d.task)
		if tree == nil {
			t.Fatalf("seed %d: no task tree", seed)
		}
		if tree.Dur.Sum != d.totalTaskTime[d.task] {
			t.Errorf("seed %d: task tree sum %d != modelled %d",
				seed, tree.Dur.Sum, d.totalTaskTime[d.task])
		}
		if tree.Dur.Count != d.instanceCount[d.task] {
			t.Errorf("seed %d: instances %d != modelled %d",
				seed, tree.Dur.Count, d.instanceCount[d.task])
		}
		var stubSum int64
		d.p.Root().Walk(func(n *Node, _ int) {
			if n.Kind == KindStub {
				stubSum += n.Dur.Sum
			}
			if n.ExclusiveSum() < 0 {
				t.Errorf("seed %d: negative exclusive time on %s", seed, n.Name())
			}
		})
		tree.Walk(func(n *Node, _ int) {
			if n.ExclusiveSum() < 0 {
				t.Errorf("seed %d: negative exclusive in task tree on %s", seed, n.Name())
			}
		})
		if stubSum != tree.Dur.Sum {
			t.Errorf("seed %d: stub sum %d != task tree sum %d", seed, stubSum, tree.Dur.Sum)
		}
		if d.p.MaxActiveInstances() != d.maxAlive {
			t.Errorf("seed %d: max active %d != modelled %d",
				seed, d.p.MaxActiveInstances(), d.maxAlive)
		}
		if d.p.InstancesBegun() != d.p.InstancesEnded() {
			t.Errorf("seed %d: begun %d != ended %d",
				seed, d.p.InstancesBegun(), d.p.InstancesEnded())
		}
	}
}

// TestQuickNestedRegionsBalance uses testing/quick to validate that any
// random nesting sequence of enter/exit keeps inclusive times consistent
// (child sums never exceed the parent).
func TestQuickNestedRegionsBalance(t *testing.T) {
	reg := region.NewRegistry()
	regions := make([]*region.Region, 4)
	for i := range regions {
		regions[i] = reg.Register("r"+string(rune('0'+i)), "q.go", i, region.UserFunction)
	}
	f := func(ops []uint8) bool {
		clk := clock.NewManual(0)
		p := NewThreadProfile(0, clk)
		var stack []*region.Region
		for _, op := range ops {
			clk.Advance(int64(op%7) + 1)
			if op%3 == 0 && len(stack) > 0 { // exit
				r := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				p.ExitAt(r, clk.Now())
			} else { // enter
				r := regions[int(op)%len(regions)]
				p.EnterAt(r, clk.Now())
				stack = append(stack, r)
			}
		}
		for len(stack) > 0 {
			r := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			clk.Advance(1)
			p.ExitAt(r, clk.Now())
		}
		p.Finish()
		ok := true
		p.Root().Walk(func(n *Node, _ int) {
			if n.ExclusiveSum() < 0 {
				ok = false
			}
		})
		// Root inclusive equals total elapsed time.
		if p.Root().Dur.Sum != clk.Now() {
			ok = false
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestDeepRecursionProfile exercises very deep call chains (tree depth
// stress; the paper worries about "tree depth limits").
func TestDeepRecursionProfile(t *testing.T) {
	reg := region.NewRegistry()
	fn := reg.Register("rec", "q.go", 1, region.UserFunction)
	clk := clock.NewManual(0)
	p := NewThreadProfile(0, clk)
	const depth = 2000
	for i := 0; i < depth; i++ {
		p.EnterAt(fn, clk.Now())
		clk.Advance(1)
	}
	for i := 0; i < depth; i++ {
		p.ExitAt(fn, clk.Now())
	}
	p.Finish()
	// Walk down: each level's inclusive = remaining time.
	n := p.Root().FindChild(fn)
	want := int64(depth)
	for n != nil {
		if n.Dur.Sum != want {
			t.Fatalf("depth node incl = %d, want %d", n.Dur.Sum, want)
		}
		want--
		n = n.FindChild(fn)
	}
	if want != 0 {
		t.Fatalf("chain ended early, %d levels missing", want)
	}
}
