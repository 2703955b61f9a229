package ebsp

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"ripple/internal/kvstore"
	"ripple/internal/memstore"
)

// TestRunAnywhereBroadcast exercises the remote-broadcast path: work-stolen
// invocations still read the reference table.
func TestRunAnywhereBroadcast(t *testing.T) {
	store := memstore.New(memstore.WithParts(4))
	t.Cleanup(func() { _ = store.Close() })
	ref, _ := store.CreateTable("rb_ref", kvstore.Ubiquitous())
	_ = ref.Put("x", 7)
	e := NewEngine(store)
	var sum atomic.Int64
	job := &Job{
		Name:           "ra-bcast",
		StateTables:    []string{"rab_state"},
		ReferenceTable: "rb_ref",
		Properties:     Properties{OneMsg: true, NoContinue: true, RareState: true},
		Compute: ComputeFunc(func(ctx *Context) bool {
			v, ok := ctx.Broadcast("x")
			if !ok {
				t.Error("broadcast missing under run-anywhere")
				return false
			}
			sum.Add(int64(v.(int)))
			return false
		}),
		Loaders: []Loader{&MessageLoader{Messages: []InitialMessage{
			{Key: 1, Message: "a"}, {Key: 2, Message: "b"}, {Key: 3, Message: "c"},
		}}},
	}
	res, err := e.Run(job)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Strategy.RunAnywhere {
		t.Fatal("run-anywhere not selected")
	}
	if sum.Load() != 21 {
		t.Errorf("sum = %d, want 21", sum.Load())
	}
}

// TestRunAnywhereAggregators: partial aggregations from stolen work merge
// correctly — in memory, even when the aggregator count puts the job on the
// table path.
func TestRunAnywhereAggregators(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts []Option
	}{
		{"default", nil},
		{"aggtables", []Option{WithAggTableThreshold(0)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := newEngine(t, tc.opts...)
			job := &Job{
				Name:        "ra-agg",
				StateTables: []string{"raa_state"},
				Properties:  Properties{OneMsg: true, NoContinue: true, RareState: true},
				Aggregators: map[string]Aggregator{"n": IntSum{}},
				Compute: ComputeFunc(func(ctx *Context) bool {
					ctx.AggregateValue("n", 1)
					return false
				}),
				Loaders: []Loader{&MessageLoader{Messages: []InitialMessage{
					{Key: 1, Message: 0}, {Key: 2, Message: 0}, {Key: 3, Message: 0}, {Key: 4, Message: 0},
				}}},
			}
			res, err := e.Run(job)
			if err != nil {
				t.Fatal(err)
			}
			if res.Aggregates["n"] != 4 {
				t.Errorf("aggregate = %v, want 4", res.Aggregates["n"])
			}
		})
	}
}

// TestRunAnywhereDirectOutput: direct job output flows from stolen work.
func TestRunAnywhereDirectOutput(t *testing.T) {
	e := newEngine(t)
	out := &CollectExporter{}
	job := &Job{
		Name:         "ra-direct",
		StateTables:  []string{"rad_state"},
		Properties:   Properties{OneMsg: true, NoContinue: true, RareState: true},
		DirectOutput: out,
		Compute: ComputeFunc(func(ctx *Context) bool {
			ctx.DirectOutput(ctx.Key(), "seen")
			return false
		}),
		Loaders: []Loader{&MessageLoader{Messages: []InitialMessage{
			{Key: 10, Message: 0}, {Key: 20, Message: 0},
		}}},
	}
	if _, err := e.Run(job); err != nil {
		t.Fatal(err)
	}
	if out.Len() != 2 {
		t.Errorf("direct output = %v", out.Pairs())
	}
}

// TestMultipleExporters exports two state tables independently.
func TestMultipleExporters(t *testing.T) {
	e := newEngine(t)
	expA := &CollectExporter{}
	expB := &CollectExporter{}
	job := &Job{
		Name:        "multi-exp",
		StateTables: []string{"me_a", "me_b"},
		Exporters:   map[string]Exporter{"me_a": expA, "me_b": expB},
		Compute: ComputeFunc(func(ctx *Context) bool {
			ctx.WriteState(0, "a")
			ctx.WriteState(1, "b")
			return false
		}),
		Loaders: []Loader{&EnableLoader{Keys: []any{1, 2}}},
	}
	if _, err := e.Run(job); err != nil {
		t.Fatal(err)
	}
	if expA.Len() != 2 || expB.Len() != 2 {
		t.Errorf("exports: a=%d b=%d", expA.Len(), expB.Len())
	}
	for _, v := range expA.Pairs() {
		if v != "a" {
			t.Errorf("exporter A saw %v", v)
		}
	}
}

// TestExporterErrorSurfaces: a failing exporter fails the run.
func TestExporterErrorSurfaces(t *testing.T) {
	e := newEngine(t)
	job := &Job{
		Name:        "exp-err",
		StateTables: []string{"ee_state"},
		Exporters: map[string]Exporter{"ee_state": ExporterFunc(func(_, _ any) error {
			return fmt.Errorf("export sink full")
		})},
		Compute: ComputeFunc(func(ctx *Context) bool {
			ctx.WriteState(0, 1)
			return false
		}),
		Loaders: []Loader{&EnableLoader{Keys: []any{1}}},
	}
	if _, err := e.Run(job); err == nil {
		t.Error("exporter error did not surface")
	}
}

// TestLoaderErrorSurfaces: a failing loader fails the run before any step.
func TestLoaderErrorSurfaces(t *testing.T) {
	e := newEngine(t)
	var ran atomic.Bool
	job := &Job{
		Name:        "load-err",
		StateTables: []string{"le_state"},
		Compute: ComputeFunc(func(ctx *Context) bool {
			ran.Store(true)
			return false
		}),
		Loaders: []Loader{LoaderFunc(func(*LoadContext) error {
			return fmt.Errorf("source unavailable")
		})},
	}
	if _, err := e.Run(job); err == nil {
		t.Error("loader error did not surface")
	}
	if ran.Load() {
		t.Error("compute ran despite loader failure")
	}
}

// TestAggregatorUnknownNameIgnored: feeding an undeclared aggregator is a
// no-op, reading one yields nil.
func TestAggregatorUnknownNameIgnored(t *testing.T) {
	e := newEngine(t)
	job := &Job{
		Name:        "agg-unknown",
		StateTables: []string{"au_state"},
		Compute: ComputeFunc(func(ctx *Context) bool {
			ctx.AggregateValue("ghost", 1)
			if v := ctx.AggregateResult("ghost"); v != nil {
				t.Errorf("ghost aggregate = %v", v)
			}
			return false
		}),
		Loaders: []Loader{&EnableLoader{Keys: []any{1}}},
	}
	if _, err := e.Run(job); err != nil {
		t.Fatal(err)
	}
}

// TestSendToSelfSameStepDelivery: messages to self arrive next step like any
// other.
func TestSendToSelfSameStepDelivery(t *testing.T) {
	e := newEngine(t)
	var mu sync.Mutex
	var perStep []int
	job := &Job{
		Name:        "self",
		StateTables: []string{"self_state"},
		MaxSteps:    3,
		Compute: ComputeFunc(func(ctx *Context) bool {
			mu.Lock()
			perStep = append(perStep, len(ctx.InputMessages()))
			mu.Unlock()
			ctx.Send(ctx.Key(), "again")
			return false
		}),
		Loaders: []Loader{&MessageLoader{Messages: []InitialMessage{{Key: 1, Message: "start"}}}},
	}
	if _, err := e.Run(job); err != nil {
		t.Fatal(err)
	}
	want := []int{1, 1, 1}
	if len(perStep) != 3 {
		t.Fatalf("invocations = %v", perStep)
	}
	for i := range want {
		if perStep[i] != want[i] {
			t.Errorf("step %d messages = %d", i+1, perStep[i])
		}
	}
}

// TestComputeObjectCombinerInterface: a Compute that implements
// MessageCombiner is used without setting Job.Combiner.
type selfCombining struct {
	delivered atomic.Int64
}

func (sc *selfCombining) Compute(ctx *Context) bool {
	if ctx.StepNum() == 1 {
		ctx.Send(99, 1)
		ctx.Send(99, 2)
		ctx.Send(99, 3)
		return false
	}
	sc.delivered.Add(int64(len(ctx.InputMessages())))
	return false
}

func (sc *selfCombining) CombineMessages(_, a, b any) any { return a.(int) + b.(int) }

func TestComputeObjectCombinerInterface(t *testing.T) {
	e := newEngine(t)
	comp := &selfCombining{}
	job := &Job{
		Name:        "implicit-combiner",
		StateTables: []string{"ic_state"},
		Compute:     comp,
		Loaders:     []Loader{&EnableLoader{Keys: []any{1}}},
	}
	if _, err := e.Run(job); err != nil {
		t.Fatal(err)
	}
	if comp.delivered.Load() != 1 {
		t.Errorf("deliveries = %d, want 1 (combined)", comp.delivered.Load())
	}
}

// TestDeepChainManySteps stresses long executions (hundreds of barriers).
func TestDeepChainManySteps(t *testing.T) {
	e := newEngine(t)
	job := &Job{
		Name:        "deep",
		StateTables: []string{"deep_state"},
		Compute:     &chainCompute{limit: 400},
		Loaders:     []Loader{&MessageLoader{Messages: []InitialMessage{{Key: 0, Message: 0}}}},
	}
	res, err := e.Run(job)
	if err != nil {
		t.Fatal(err)
	}
	if res.Steps != 401 {
		t.Errorf("Steps = %d, want 401", res.Steps)
	}
}

// TestWideFanoutSingleStep stresses many components in one step.
func TestWideFanoutSingleStep(t *testing.T) {
	e := newEngine(t)
	const width = 5000
	seeds := make([]InitialMessage, width)
	for i := range seeds {
		seeds[i] = InitialMessage{Key: i, Message: i}
	}
	var count atomic.Int64
	job := &Job{
		Name:        "wide",
		StateTables: []string{"wide_state"},
		Compute: ComputeFunc(func(ctx *Context) bool {
			count.Add(1)
			return false
		}),
		Loaders: []Loader{&MessageLoader{Messages: seeds}},
	}
	res, err := e.Run(job)
	if err != nil {
		t.Fatal(err)
	}
	if res.Steps != 1 || count.Load() != width {
		t.Errorf("steps=%d count=%d", res.Steps, count.Load())
	}
}
