package mapreduce

import (
	"errors"
	"strings"
	"testing"

	"ripple/internal/ebsp"
	"ripple/internal/kvstore"
	"ripple/internal/memstore"
)

func newEngine(t *testing.T) *ebsp.Engine {
	t.Helper()
	store := memstore.New(memstore.WithParts(4))
	t.Cleanup(func() { _ = store.Close() })
	return ebsp.NewEngine(store)
}

func loadDocs(t *testing.T, e *ebsp.Engine, docs map[any]any) {
	t.Helper()
	tab, err := e.Store().CreateTable("docs")
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range docs {
		if err := tab.Put(k, v); err != nil {
			t.Fatal(err)
		}
	}
}

var wordCountJob = &Job{
	Name:   "wordcount",
	Input:  "docs",
	Output: "counts",
	Mapper: MapperFunc(func(_, value any, emit Emitter) error {
		for _, w := range strings.Fields(value.(string)) {
			emit(w, 1)
		}
		return nil
	}),
	Reducer: ReducerFunc(func(key any, values []any, emit Emitter) error {
		total := 0
		for _, v := range values {
			total += v.(int)
		}
		emit(key, total)
		return nil
	}),
}

func TestWordCount(t *testing.T) {
	e := newEngine(t)
	loadDocs(t, e, map[any]any{
		1: "the quick brown fox",
		2: "the lazy dog",
		3: "the quick dog",
	})
	res, err := Run(e, wordCountJob)
	if err != nil {
		t.Fatal(err)
	}
	if res.Steps < 2 {
		t.Errorf("Steps = %d, want >= 2 (map + reduce)", res.Steps)
	}
	out, _ := e.Store().LookupTable("counts")
	want := map[string]int{"the": 3, "quick": 2, "brown": 1, "fox": 1, "lazy": 1, "dog": 2}
	for w, n := range want {
		v, ok, _ := out.Get(w)
		if !ok || v != n {
			t.Errorf("count[%s] = %v, %v, want %d", w, v, ok, n)
		}
	}
	if sz, _ := out.Size(); sz != len(want) {
		t.Errorf("output size = %d, want %d", sz, len(want))
	}
}

func TestWordCountWithCombiner(t *testing.T) {
	e := newEngine(t)
	loadDocs(t, e, map[any]any{
		1: "a a a a b",
		2: "b a a",
	})
	job := *wordCountJob
	job.Combiner = func(_, v1, v2 any) any { return v1.(int) + v2.(int) }
	if _, err := Run(e, &job); err != nil {
		t.Fatal(err)
	}
	out, _ := e.Store().LookupTable("counts")
	if v, _, _ := out.Get("a"); v != 6 {
		t.Errorf("a = %v, want 6", v)
	}
	if v, _, _ := out.Get("b"); v != 2 {
		t.Errorf("b = %v, want 2", v)
	}
}

func TestCrossKeyReduceEmit(t *testing.T) {
	// A reduce that emits under a different key than its own.
	e := newEngine(t)
	loadDocs(t, e, map[any]any{1: "x", 2: "y"})
	job := &Job{
		Name:   "crosskey",
		Input:  "docs",
		Output: "out",
		Mapper: MapperFunc(func(k, v any, emit Emitter) error {
			emit(k, v)
			return nil
		}),
		Reducer: ReducerFunc(func(key any, values []any, emit Emitter) error {
			emit("merged:"+values[0].(string), key)
			return nil
		}),
	}
	if _, err := Run(e, job); err != nil {
		t.Fatal(err)
	}
	out, _ := e.Store().LookupTable("out")
	if v, ok, _ := out.Get("merged:x"); !ok || v != 1 {
		t.Errorf("merged:x = %v, %v", v, ok)
	}
	if v, ok, _ := out.Get("merged:y"); !ok || v != 2 {
		t.Errorf("merged:y = %v, %v", v, ok)
	}
}

func TestRunValidation(t *testing.T) {
	e := newEngine(t)
	cases := []*Job{
		{Name: "no-mapper", Input: "docs", Output: "o", Reducer: wordCountJob.Reducer},
		{Name: "no-reducer", Input: "docs", Output: "o", Mapper: wordCountJob.Mapper},
		{Name: "no-input", Output: "o", Mapper: wordCountJob.Mapper, Reducer: wordCountJob.Reducer},
		{Name: "no-output", Input: "docs", Mapper: wordCountJob.Mapper, Reducer: wordCountJob.Reducer},
	}
	for _, job := range cases {
		if _, err := Run(e, job); !errors.Is(err, ErrBadJob) {
			t.Errorf("%s: err = %v, want ErrBadJob", job.Name, err)
		}
	}
	// Missing input table is reported too.
	job := *wordCountJob
	if _, err := Run(e, &job); err == nil {
		t.Error("missing input table not reported")
	}
}

func TestMapErrorSurfaces(t *testing.T) {
	e := newEngine(t)
	loadDocs(t, e, map[any]any{1: "x"})
	job := &Job{
		Name:   "maperr",
		Input:  "docs",
		Output: "out",
		Mapper: MapperFunc(func(_, _ any, _ Emitter) error {
			return errors.New("map exploded")
		}),
		Reducer: wordCountJob.Reducer,
	}
	if _, err := Run(e, job); err == nil {
		t.Error("map error did not surface")
	}
}

// TestIteratedChained refines a dataset of counters: each iteration every
// key sends its value to the next key (mod n), and reduce sums what arrives.
func TestIteratedChained(t *testing.T) {
	e := newEngine(t)
	const n = 8
	tab, _ := e.Store().CreateTable("ring")
	for i := 0; i < n; i++ {
		_ = tab.Put(i, 1)
	}
	job := &IteratedJob{
		Name:  "ring",
		Table: "ring",
		Mapper: MapperFunc(func(k, v any, emit Emitter) error {
			emit((k.(int)+1)%n, v)
			return nil
		}),
		Reducer: ReducerFunc(func(key any, values []any, emit Emitter) error {
			total := 0
			for _, v := range values {
				total += v.(int)
			}
			emit(key, total)
			return nil
		}),
		MaxIterations: 5,
	}
	sum, err := RunIterated(e, job)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Iterations != 5 {
		t.Errorf("Iterations = %d, want 5", sum.Iterations)
	}
	if sum.Steps != 10 {
		t.Errorf("Steps = %d, want 10 (two per iteration)", sum.Steps)
	}
	// Mass conservation: total value stays n.
	total := 0
	dump, _ := kvstore.Dump(tab)
	for _, v := range dump {
		total += v.(int)
	}
	if total != n {
		t.Errorf("total mass = %d, want %d", total, n)
	}
}

func TestIteratedFreshMatchesChained(t *testing.T) {
	build := func() *IteratedJob {
		return &IteratedJob{
			Name:  "cmp",
			Table: "data",
			Mapper: MapperFunc(func(k, v any, emit Emitter) error {
				emit(k, v.(int)+1) // each iteration increments every value
				return nil
			}),
			Reducer: ReducerFunc(func(key any, values []any, emit Emitter) error {
				emit(key, values[0])
				return nil
			}),
			MaxIterations: 4,
		}
	}
	run := func(fresh bool) map[any]any {
		e := newEngine(t)
		tab, _ := e.Store().CreateTable("data")
		for i := 0; i < 10; i++ {
			_ = tab.Put(i, 0)
		}
		job := build()
		job.FreshJobPerIteration = fresh
		if _, err := RunIterated(e, job); err != nil {
			t.Fatal(err)
		}
		dump, _ := kvstore.Dump(tab)
		return dump
	}
	chained := run(false)
	fresh := run(true)
	for k, v := range chained {
		if fresh[k] != v {
			t.Errorf("key %v: chained %v, fresh %v", k, v, fresh[k])
		}
		if v != 4 {
			t.Errorf("key %v = %v, want 4", k, v)
		}
	}
}

func TestIteratedConvergence(t *testing.T) {
	e := newEngine(t)
	tab, _ := e.Store().CreateTable("conv")
	for i := 0; i < 6; i++ {
		_ = tab.Put(i, 10)
	}
	job := &IteratedJob{
		Name:  "conv",
		Table: "conv",
		Mapper: MapperFunc(func(k, v any, emit Emitter) error {
			emit(k, v.(int)/2)
			return nil
		}),
		Reducer: ReducerFunc(func(key any, values []any, emit Emitter) error {
			emit(key, values[0])
			return nil
		}),
		MaxIterations:        100,
		FreshJobPerIteration: true,
		Converged: func(_ int, _ map[string]any) bool {
			dump, _ := kvstore.Dump(tab)
			for _, v := range dump {
				if v.(int) != 0 {
					return false
				}
			}
			return true
		},
	}
	sum, err := RunIterated(e, job)
	if err != nil {
		t.Fatal(err)
	}
	if !sum.Converged {
		t.Error("never converged")
	}
	// 10 -> 5 -> 2 -> 1 -> 0: four iterations.
	if sum.Iterations != 4 {
		t.Errorf("Iterations = %d, want 4", sum.Iterations)
	}
}

func TestIteratedValidation(t *testing.T) {
	e := newEngine(t)
	if _, err := RunIterated(e, &IteratedJob{
		Name:   "bad",
		Table:  "t",
		Mapper: wordCountJob.Mapper,
	}); !errors.Is(err, ErrBadJob) {
		t.Errorf("err = %v", err)
	}
	if _, err := RunIterated(e, &IteratedJob{
		Name:    "unbounded",
		Table:   "t",
		Mapper:  wordCountJob.Mapper,
		Reducer: wordCountJob.Reducer,
	}); !errors.Is(err, ErrBadJob) {
		t.Errorf("unbounded err = %v", err)
	}
}
