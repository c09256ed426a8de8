package cube

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/region"
	"repro/internal/stats"
)

// RenderOptions controls text rendering.
type RenderOptions struct {
	// MaxDepth prunes the tree below this depth (0 = unlimited).
	MaxDepth int
	// PerThread appends a per-thread inclusive-time breakdown per node.
	PerThread bool
	// MinSumNs hides nodes whose inclusive sum is below the threshold.
	MinSumNs int64
}

// Render writes the report as an indented text tree, the plain-text
// counterpart of the CUBE view in the paper's Fig. 5: the main (implicit
// task) tree first, then the aggregate task trees beside it.
func Render(w io.Writer, r *Report, opt RenderOptions) error {
	bw := &errWriter{w: w}
	fmt.Fprintf(bw, "=== MAIN TREE (implicit tasks, %d threads) ===\n", r.NumThreads)
	renderNode(bw, r.Main, 0, r, opt)
	if len(r.Tasks) > 0 {
		fmt.Fprintf(bw, "\n=== TASK TREES (merged over all instances) ===\n")
		for _, t := range r.Tasks {
			renderNode(bw, t, 0, r, opt)
		}
	}
	fmt.Fprintf(bw, "\nmax concurrently active task instances per thread: %d\n", r.MaxConcurrent)
	return bw.err
}

func renderNode(w io.Writer, n *Node, depth int, r *Report, opt RenderOptions) {
	if opt.MaxDepth > 0 && depth > opt.MaxDepth {
		return
	}
	if opt.MinSumNs > 0 && n.Dur.Sum < opt.MinSumNs && depth > 0 {
		return
	}
	indent := strings.Repeat("  ", depth)
	name := n.Name()
	if n.Kind == core.KindStub {
		name += " [stub]"
	}
	fmt.Fprintf(w, "%-52s visits=%-9d incl=%-10s excl=%-10s mean=%-10s min=%-10s max=%-10s\n",
		indent+name, n.Visits,
		stats.FormatNs(n.Dur.Sum), stats.FormatNs(n.ExclusiveSum()),
		stats.FormatNs(int64(n.Dur.Mean())), stats.FormatNs(n.Dur.Min), stats.FormatNs(n.Dur.Max))
	if opt.PerThread {
		// The node's threads, not every number below NumThreads, which a
		// report read back may set to anything.
		tids := make([]int, 0, len(n.PerThreadDur))
		for tid := range n.PerThreadDur {
			if tid >= 0 && tid < r.NumThreads {
				tids = append(tids, tid)
			}
		}
		slices.Sort(tids)
		for _, tid := range tids {
			fmt.Fprintf(w, "%s  [thread %d] visits=%d incl=%s excl=%s\n",
				indent, tid, n.PerThreadVisits[tid], stats.FormatNs(n.PerThreadDur[tid].Sum),
				stats.FormatNs(n.ExclusiveSumThread(tid)))
		}
	}
	for _, c := range n.Children {
		renderNode(w, c, depth+1, r, opt)
	}
}

type errWriter struct {
	w   io.Writer
	err error
}

func (e *errWriter) Write(p []byte) (int, error) {
	if e.err != nil {
		return len(p), nil
	}
	n, err := e.w.Write(p)
	if err != nil {
		e.err = err
	}
	return n, nil
}

// WriteCSV emits one row per node of the main tree and all task trees:
// tree,path,kind,type,visits,sum_ns,min_ns,max_ns,mean_ns,excl_ns.
func WriteCSV(w io.Writer, r *Report) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"tree", "path", "kind", "type", "visits", "sum_ns", "min_ns", "max_ns", "mean_ns", "excl_ns"}); err != nil {
		return err
	}
	emit := func(tree string, root *Node) {
		root.Walk(func(n *Node, _ int) {
			typ := ""
			if n.Region != nil {
				typ = n.Region.Type.String()
			}
			cw.Write([]string{
				tree,
				strings.Join(n.Path(), "/"),
				n.Kind.String(),
				typ,
				strconv.FormatInt(n.Visits, 10),
				strconv.FormatInt(n.Dur.Sum, 10),
				strconv.FormatInt(n.Dur.Min, 10),
				strconv.FormatInt(n.Dur.Max, 10),
				strconv.FormatInt(int64(n.Dur.Mean()), 10),
				strconv.FormatInt(n.ExclusiveSum(), 10),
			})
		})
	}
	emit("main", r.Main)
	for _, t := range r.Tasks {
		emit("task:"+t.Region.Name, t)
	}
	cw.Flush()
	return cw.Error()
}

// jsonNode is the serialized node form (regions flattened).
type jsonNode struct {
	Kind       string                   `json:"kind"`
	Region     *jsonRegion              `json:"region,omitempty"`
	ParamName  string                   `json:"param_name,omitempty"`
	ParamValue int64                    `json:"param_value,omitempty"`
	ParamStr   string                   `json:"param_str,omitempty"`
	Visits     int64                    `json:"visits"`
	Sum        int64                    `json:"sum_ns"`
	Min        int64                    `json:"min_ns"`
	Max        int64                    `json:"max_ns"`
	Count      int64                    `json:"count"`
	PerThread  map[string]jsonThreadDur `json:"per_thread,omitempty"`
	Children   []*jsonNode              `json:"children,omitempty"`
}

type jsonThreadDur struct {
	Visits int64 `json:"visits"`
	Sum    int64 `json:"sum_ns"`
	Min    int64 `json:"min_ns"`
	Max    int64 `json:"max_ns"`
	Count  int64 `json:"count"`
}

type jsonRegion struct {
	Name string `json:"name"`
	File string `json:"file,omitempty"`
	Line int    `json:"line,omitempty"`
	Type string `json:"type"`
}

type jsonReport struct {
	NumThreads    int            `json:"num_threads"`
	MaxConcurrent int            `json:"max_concurrent_tasks"`
	MaxPerThread  map[string]int `json:"max_concurrent_per_thread,omitempty"`
	Main          *jsonNode      `json:"main"`
	Tasks         []*jsonNode    `json:"tasks,omitempty"`
}

var kindNames = map[core.NodeKind]string{
	core.KindRegion:    "region",
	core.KindStub:      "stub",
	core.KindParameter: "parameter",
}

var kindFromName = map[string]core.NodeKind{
	"region":    core.KindRegion,
	"stub":      core.KindStub,
	"parameter": core.KindParameter,
}

var typeFromName = func() map[string]region.Type {
	m := make(map[string]region.Type)
	for t := region.UserFunction; t <= region.Parameter; t++ {
		m[t.String()] = t
	}
	return m
}()

func toJSONNode(n *Node) *jsonNode {
	jn := &jsonNode{
		Kind:       kindNames[n.Kind],
		ParamName:  n.ParamName,
		ParamValue: n.ParamValue,
		ParamStr:   n.ParamStr,
		Visits:     n.Visits,
		Sum:        n.Dur.Sum,
		Min:        n.Dur.Min,
		Max:        n.Dur.Max,
		Count:      n.Dur.Count,
	}
	if n.Region != nil {
		jn.Region = &jsonRegion{Name: n.Region.Name, File: n.Region.File, Line: n.Region.Line, Type: n.Region.Type.String()}
	}
	if len(n.PerThreadDur) > 0 {
		jn.PerThread = make(map[string]jsonThreadDur, len(n.PerThreadDur))
		for tid, d := range n.PerThreadDur {
			jn.PerThread[strconv.Itoa(tid)] = jsonThreadDur{
				Visits: n.PerThreadVisits[tid], Sum: d.Sum, Min: d.Min, Max: d.Max, Count: d.Count,
			}
		}
	}
	for _, c := range n.Children {
		jn.Children = append(jn.Children, toJSONNode(c))
	}
	return jn
}

// fromJSONNode builds the tree jn encodes. A null node, or a stub with
// no region, which names itself by its region, is an error.
func fromJSONNode(jn *jsonNode, reg *region.Registry, parent *Node) (*Node, error) {
	if jn == nil {
		return nil, fmt.Errorf("cube: report has a null node")
	}
	n := &Node{
		Kind:       kindFromName[jn.Kind],
		ParamName:  jn.ParamName,
		ParamValue: jn.ParamValue,
		ParamStr:   jn.ParamStr,
		Visits:     jn.Visits,
		Dur:        stats.Dur{Count: jn.Count, Sum: jn.Sum, Min: jn.Min, Max: jn.Max},
		Parent:     parent,
	}
	if jn.Region != nil {
		n.Region = reg.Register(jn.Region.Name, jn.Region.File, jn.Region.Line, typeFromName[jn.Region.Type])
	}
	if len(jn.PerThread) > 0 {
		n.PerThreadDur = make(map[int]stats.Dur, len(jn.PerThread))
		n.PerThreadVisits = make(map[int]int64, len(jn.PerThread))
		for k, d := range jn.PerThread {
			tid, _ := strconv.Atoi(k)
			n.PerThreadDur[tid] = stats.Dur{Count: d.Count, Sum: d.Sum, Min: d.Min, Max: d.Max}
			n.PerThreadVisits[tid] = d.Visits
		}
	}
	if n.Kind == core.KindStub && n.Region == nil {
		return nil, fmt.Errorf("cube: report has a stub node with no region")
	}
	for _, jc := range jn.Children {
		c, err := fromJSONNode(jc, reg, n)
		if err != nil {
			return nil, err
		}
		n.Children = append(n.Children, c)
	}
	return n, nil
}

// WriteJSON serializes the report (regions flattened by name/file/line).
func WriteJSON(w io.Writer, r *Report) error {
	jr := jsonReport{
		NumThreads:    r.NumThreads,
		MaxConcurrent: r.MaxConcurrent,
		Main:          toJSONNode(r.Main),
	}
	if len(r.MaxConcurrentPerThread) > 0 {
		jr.MaxPerThread = make(map[string]int, len(r.MaxConcurrentPerThread))
		for tid, v := range r.MaxConcurrentPerThread {
			jr.MaxPerThread[strconv.Itoa(tid)] = v
		}
	}
	for _, t := range r.Tasks {
		jr.Tasks = append(jr.Tasks, toJSONNode(t))
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(jr)
}

// ReadJSON deserializes a report written by WriteJSON, interning regions
// into reg (use a fresh registry to keep the default one clean). A
// report with a null node, a stub with no region or a task tree with no
// region, which is looked up by its region's name, is an error.
func ReadJSON(rd io.Reader, reg *region.Registry) (*Report, error) {
	var jr jsonReport
	if err := json.NewDecoder(rd).Decode(&jr); err != nil {
		return nil, fmt.Errorf("cube: decoding report: %w", err)
	}
	if jr.Main == nil {
		return nil, fmt.Errorf("cube: report has no main tree")
	}
	main, err := fromJSONNode(jr.Main, reg, nil)
	if err != nil {
		return nil, err
	}
	rep := &Report{
		NumThreads:             jr.NumThreads,
		MaxConcurrent:          jr.MaxConcurrent,
		Main:                   main,
		MaxConcurrentPerThread: make(map[int]int),
	}
	for k, v := range jr.MaxPerThread {
		tid, _ := strconv.Atoi(k)
		rep.MaxConcurrentPerThread[tid] = v
	}
	for _, jt := range jr.Tasks {
		t, err := fromJSONNode(jt, reg, nil)
		if err != nil {
			return nil, err
		}
		if t.Region == nil {
			return nil, fmt.Errorf("cube: report has a task tree with no region")
		}
		rep.Tasks = append(rep.Tasks, t)
	}
	return rep, nil
}
