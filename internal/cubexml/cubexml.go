// Package cubexml stores CUBE experiments in the CUBE XML format and reads
// them back. A file consists of two parts, mirroring the data model: the
// metadata (metric forest, program dimension, system forest) and the
// severity function values, stored as a three-dimensional array with one
// dimension for the metric, one for the call path, and one for the thread.
//
// The public API deliberately stays small (the paper advertises a class
// interface with fewer than fifteen methods): Read, Write, ReadFile,
// WriteFile, and Version.
package cubexml

import (
	"bytes"
	"context"
	"encoding/xml"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"

	"cube/internal/core"
	"cube/internal/obs"
)

// Version identifies the schema written by this package.
const Version = "cube-go-1.0"

// --- XML document types -------------------------------------------------------

type xCube struct {
	XMLName  xml.Name  `xml:"cube"`
	Version  string    `xml:"version,attr"`
	Attrs    []xAttr   `xml:"attr"`
	Doc      xDoc      `xml:"doc"`
	Metrics  []xMetric `xml:"metrics>metric"`
	Program  xProgram  `xml:"program"`
	Machines []xMach   `xml:"system>machine"`
	Topology *xTopo    `xml:"topology"`
	Matrices []xMatrix `xml:"severity>matrix"`
}

type xTopo struct {
	Name   string   `xml:"name,attr"`
	Dims   []int    `xml:"dim"`
	Coords []xCoord `xml:"coord"`
}

type xCoord struct {
	Rank   int    `xml:"rank,attr"`
	Values string `xml:",chardata"`
}

type xAttr struct {
	Key   string `xml:"key,attr"`
	Value string `xml:"value,attr"`
}

type xDoc struct {
	Title     string   `xml:"title"`
	Derived   bool     `xml:"derived"`
	Operation string   `xml:"operation,omitempty"`
	Parents   []string `xml:"parents>parent"`
}

type xMetric struct {
	ID       int       `xml:"id,attr"`
	Name     string    `xml:"name"`
	UOM      string    `xml:"uom"`
	Descr    string    `xml:"descr,omitempty"`
	Children []xMetric `xml:"metric"`
}

type xProgram struct {
	Regions []xRegion `xml:"region"`
	Sites   []xSite   `xml:"csite"`
	CNodes  []xCNode  `xml:"cnode"`
}

type xRegion struct {
	ID    int    `xml:"id,attr"`
	Name  string `xml:"name,attr"`
	Mod   string `xml:"mod,attr,omitempty"`
	Begin int    `xml:"begin,attr,omitempty"`
	End   int    `xml:"end,attr,omitempty"`
	Descr string `xml:"descr,omitempty"`
}

type xSite struct {
	ID     int    `xml:"id,attr"`
	File   string `xml:"file,attr,omitempty"`
	Line   int    `xml:"line,attr,omitempty"`
	Callee int    `xml:"callee,attr"`
}

type xCNode struct {
	ID       int      `xml:"id,attr"`
	Site     int      `xml:"csite,attr"`
	Children []xCNode `xml:"cnode"`
}

type xMach struct {
	Name  string  `xml:"name,attr"`
	Nodes []xNode `xml:"node"`
}

type xNode struct {
	Name  string  `xml:"name,attr"`
	Procs []xProc `xml:"process"`
}

type xProc struct {
	Rank    int       `xml:"rank,attr"`
	Name    string    `xml:"name,attr,omitempty"`
	Threads []xThread `xml:"thread"`
}

type xThread struct {
	ID   int    `xml:"id,attr"`
	Name string `xml:"name,attr,omitempty"`
}

type xMatrix struct {
	Metric int    `xml:"metric,attr"`
	Rows   []xRow `xml:"row"`
}

type xRow struct {
	CNode  int    `xml:"cnode,attr"`
	Values string `xml:",chardata"`
}

// --- Writing -------------------------------------------------------------------

// Write serialises the experiment to w in the CUBE XML format.
func Write(w io.Writer, e *core.Experiment) error {
	return WriteContext(context.Background(), w, e)
}

// WriteContext is Write carrying a context for observability: the encode
// runs as one encode stage of the obs stage table (span "cubexml.write",
// child of the span in ctx or a root on the process tracer), counting the
// serialisations and the bytes written. Parses are the table's parse
// stage in the same way. With nothing recording it is exactly Write.
func WriteContext(ctx context.Context, w io.Writer, e *core.Experiment) error {
	st, _ := obs.Begin(ctx, obs.Encode)
	if !st.On() {
		return writeFast(w, e)
	}
	cw := &countingWriter{w: w}
	err := writeFast(cw, e)
	st.Count(obs.XMLWriteBytes, cw.n)
	if err == nil {
		st.Count(obs.XMLWrites, 1)
	}
	if sp := st.Span(); sp != nil {
		sp.SetAttr("cells", e.NonZeroCount())
	}
	st.End(err)
	return err
}

// buildDocMeta builds the document's metadata — everything except the
// severity matrices — plus the id enumerations severity references use.
// Shared by the writers and the reference writer of the tests, so their id
// assignment is identical by construction.
func buildDocMeta(e *core.Experiment) (xCube, map[*core.Metric]int, map[*core.CallNode]int) {
	doc := xCube{Version: Version}
	doc.Doc = xDoc{
		Title:     e.Title,
		Derived:   e.Derived,
		Operation: e.Operation,
		Parents:   e.Parents,
	}
	keys := make([]string, 0, len(e.Attrs))
	for k := range e.Attrs {
		keys = append(keys, k)
	}
	sortStrings(keys)
	for _, k := range keys {
		doc.Attrs = append(doc.Attrs, xAttr{Key: k, Value: e.Attrs[k]})
	}

	// Metric forest with pre-order ids (the enumeration order of
	// Experiment.Metrics, so severity matrices can refer to ids).
	metricID := map[*core.Metric]int{}
	for i, m := range e.Metrics() {
		metricID[m] = i
	}
	var encodeMetric func(m *core.Metric) xMetric
	encodeMetric = func(m *core.Metric) xMetric {
		xm := xMetric{ID: metricID[m], Name: m.Name, UOM: string(m.Unit), Descr: m.Description}
		for _, c := range m.Children() {
			xm.Children = append(xm.Children, encodeMetric(c))
		}
		return xm
	}
	for _, r := range e.MetricRoots() {
		doc.Metrics = append(doc.Metrics, encodeMetric(r))
	}

	// Program dimension. Regions and call sites referenced by call nodes
	// are written even if the producer forgot to register them.
	regionID := map[*core.Region]int{}
	addRegion := func(r *core.Region) {
		if r == nil {
			return
		}
		if _, ok := regionID[r]; ok {
			return
		}
		id := len(regionID)
		regionID[r] = id
		doc.Program.Regions = append(doc.Program.Regions, xRegion{
			ID: id, Name: r.Name, Mod: r.Module, Begin: r.BeginLine, End: r.EndLine, Descr: r.Description,
		})
	}
	for _, r := range e.Regions() {
		addRegion(r)
	}
	siteID := map[*core.CallSite]int{}
	addSite := func(s *core.CallSite) {
		if s == nil {
			return
		}
		if _, ok := siteID[s]; ok {
			return
		}
		addRegion(s.Callee)
		id := len(siteID)
		siteID[s] = id
		doc.Program.Sites = append(doc.Program.Sites, xSite{
			ID: id, File: s.File, Line: s.Line, Callee: regionID[s.Callee],
		})
	}
	for _, s := range e.CallSites() {
		addSite(s)
	}
	cnodeID := map[*core.CallNode]int{}
	for i, n := range e.CallNodes() {
		cnodeID[n] = i
		addSite(n.Site)
	}
	var encodeCNode func(n *core.CallNode) xCNode
	encodeCNode = func(n *core.CallNode) xCNode {
		xn := xCNode{ID: cnodeID[n], Site: siteID[n.Site]}
		for _, c := range n.Children() {
			xn.Children = append(xn.Children, encodeCNode(c))
		}
		return xn
	}
	for _, r := range e.CallRoots() {
		doc.Program.CNodes = append(doc.Program.CNodes, encodeCNode(r))
	}

	// System forest.
	for _, mach := range e.Machines() {
		xm := xMach{Name: mach.Name}
		for _, nd := range mach.Nodes() {
			xn := xNode{Name: nd.Name}
			for _, p := range nd.Processes() {
				xp := xProc{Rank: p.Rank, Name: p.Name}
				for _, t := range p.Threads() {
					xp.Threads = append(xp.Threads, xThread{ID: t.ID, Name: t.Name})
				}
				xn.Procs = append(xn.Procs, xp)
			}
			xm.Nodes = append(xm.Nodes, xn)
		}
		doc.Machines = append(doc.Machines, xm)
	}

	// Optional Cartesian topology.
	if topo := e.Topology(); topo != nil {
		xt := &xTopo{Name: topo.Name, Dims: topo.Dims}
		for _, rank := range topo.SortedRanks() {
			var sb strings.Builder
			for i, c := range topo.Coords[rank] {
				if i > 0 {
					sb.WriteByte(' ')
				}
				sb.WriteString(strconv.Itoa(c))
			}
			xt.Coords = append(xt.Coords, xCoord{Rank: rank, Values: sb.String()})
		}
		doc.Topology = xt
	}

	return doc, metricID, cnodeID
}

// WriteFile writes the experiment to the named file.
func WriteFile(path string, e *core.Experiment) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := Write(f, e); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// --- Reading -------------------------------------------------------------------

// Limits bounds the structural size of a document accepted by ReadLimited,
// protecting a service against hostile inputs (element bombs, pathological
// nesting) that would otherwise exhaust memory or stack before the
// experiment is even validated. A zero field disables that check.
type Limits struct {
	MaxElements int // total number of XML elements in the document
	MaxDepth    int // maximum element nesting depth
}

// DefaultLimits accepts every realistic CUBE file (millions of severity
// rows, metric/call trees hundreds of levels deep) while rejecting
// adversarial documents.
var DefaultLimits = Limits{MaxElements: 5_000_000, MaxDepth: 200}

// ErrLimit is wrapped by errors returned when a document exceeds Limits,
// so callers (e.g. the HTTP service) can map it to "request too large"
// rather than "malformed request".
var ErrLimit = errors.New("document exceeds size limits")

// Read parses a CUBE XML document from r and reconstructs the experiment,
// enforcing DefaultLimits.
func Read(r io.Reader) (*core.Experiment, error) {
	return ReadLimitedContext(context.Background(), r, DefaultLimits)
}

// ReadContext is Read carrying a context for tracing (see
// ReadLimitedContext).
func ReadContext(ctx context.Context, r io.Reader) (*core.Experiment, error) {
	return ReadLimitedContext(ctx, r, DefaultLimits)
}

// ReadLimited parses a CUBE XML document from r, enforcing the given
// structural limits. It uses the default (auto) engine: the fast byte
// scanner when the document is inside its subset, the legacy decoder
// otherwise — see ReadWith and ReadEngine for control over this choice.
func ReadLimited(r io.Reader, lim Limits) (*core.Experiment, error) {
	return ReadLimitedContext(context.Background(), r, lim)
}

// ReadLimitedContext is ReadLimited carrying a context for tracing: the
// parse runs under a "cubexml.read" span (child of the span in ctx, or a
// root on the process tracer) annotated with the elements scanned and
// bytes decoded.
func ReadLimitedContext(ctx context.Context, r io.Reader, lim Limits) (*core.Experiment, error) {
	return ReadWith(ctx, r, ReadOptions{Limits: lim})
}

func readLimited(r io.Reader, lim Limits, st *obs.Stage) (*core.Experiment, error) {
	if lim.MaxElements <= 0 && lim.MaxDepth <= 0 {
		return decode(r, st)
	}
	scan := func(sr io.Reader) error {
		elems, err := checkLimits(sr, lim)
		st.Count(obs.XMLReadElements, int64(elems))
		return err
	}
	if s, ok := r.(io.Seeker); ok {
		if start, err := s.Seek(0, io.SeekCurrent); err == nil {
			if err := scan(r); err != nil {
				return nil, err
			}
			if _, err := s.Seek(start, io.SeekStart); err != nil {
				return nil, fmt.Errorf("cubexml: rewinding after limit scan: %w", err)
			}
			return decode(r, st)
		}
	}
	var buf bytes.Buffer
	if err := scan(io.TeeReader(r, &buf)); err != nil {
		return nil, err
	}
	return decode(&buf, st)
}

// checkLimits scans tokens up to the end of the root element, enforcing
// lim, and reports how many elements it saw. Syntax errors surface here
// with the same wrapping the decode pass would use.
func checkLimits(r io.Reader, lim Limits) (int, error) {
	dec := xml.NewDecoder(r)
	depth, elems := 0, 0
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			return elems, nil
		}
		if err != nil {
			return elems, fmt.Errorf("cubexml: decode: %w", err)
		}
		switch tok.(type) {
		case xml.StartElement:
			elems++
			depth++
			if lim.MaxElements > 0 && elems > lim.MaxElements {
				return elems, fmt.Errorf("cubexml: %w: more than %d elements", ErrLimit, lim.MaxElements)
			}
			if lim.MaxDepth > 0 && depth > lim.MaxDepth {
				return elems, fmt.Errorf("cubexml: %w: elements nested deeper than %d", ErrLimit, lim.MaxDepth)
			}
		case xml.EndElement:
			depth--
			if depth == 0 {
				// End of the root element: the decode pass ignores
				// anything after it, so stop scanning here too.
				return elems, nil
			}
		}
	}
}

// countingReader counts the bytes pulled through it, so parses count
// document bytes on the wire, not in-memory sizes.
type countingReader struct {
	r io.Reader
	n int64
}

func (cr *countingReader) Read(p []byte) (int, error) {
	n, err := cr.r.Read(p)
	cr.n += int64(n)
	return n, err
}

// countingWriter counts the bytes pushed through it.
type countingWriter struct {
	w io.Writer
	n int64
}

func (cw *countingWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	cw.n += int64(n)
	return n, err
}

func decode(r io.Reader, st *obs.Stage) (*core.Experiment, error) {
	if !st.On() {
		return decodeDoc(r)
	}
	cr := &countingReader{r: r}
	e, err := decodeDoc(cr)
	st.Count(obs.XMLReadBytes, cr.n)
	return e, err
}

func decodeDoc(r io.Reader) (*core.Experiment, error) {
	var doc xCube
	dec := xml.NewDecoder(r)
	if err := dec.Decode(&doc); err != nil {
		return nil, fmt.Errorf("cubexml: decode: %w", err)
	}
	e, metricByID, cnodeByID, err := buildFromDoc(&doc)
	if err != nil {
		return nil, err
	}
	if err := applySeverity(e, doc.Matrices, metricByID, cnodeByID); err != nil {
		return nil, err
	}
	if err := e.Validate(); err != nil {
		return nil, fmt.Errorf("cubexml: file describes an invalid experiment: %w", err)
	}
	return e, nil
}

// buildMeta decodes a document (with or without its severity sections)
// and builds the metadata experiment. The fast read path feeds it the
// document with severity spliced out; the id maps let the caller resolve
// severity references itself.
func buildMeta(r io.Reader) (*core.Experiment, map[int]*core.Metric, map[int]*core.CallNode, error) {
	var doc xCube
	dec := xml.NewDecoder(r)
	if err := dec.Decode(&doc); err != nil {
		return nil, nil, nil, fmt.Errorf("cubexml: decode: %w", err)
	}
	return buildFromDoc(&doc)
}

// buildFromDoc constructs the metadata dimensions of the experiment from
// the decoded document: everything except the severity matrices.
//
// Metadata vocabulary — metric/region/machine/node/process/thread names,
// units, module paths, call-site files — goes through the process-wide
// core.Intern table rather than a per-document map. Experiments from the
// same measurement campaign repeat the same small vocabulary, so a server
// holding hundreds of parsed experiments retains one copy of each name,
// and cross-experiment name comparisons in the merge hot path become
// pointer-equal for the common case.
func buildFromDoc(doc *xCube) (*core.Experiment, map[int]*core.Metric, map[int]*core.CallNode, error) {
	if doc.Version != "" && doc.Version != Version {
		return nil, nil, nil, fmt.Errorf("cubexml: unsupported version %q (want %q)", doc.Version, Version)
	}

	e := core.New(doc.Doc.Title)
	e.Derived = doc.Doc.Derived
	e.Operation = doc.Doc.Operation
	e.Parents = doc.Doc.Parents
	for _, a := range doc.Attrs {
		e.Attrs[a.Key] = a.Value
	}

	// Metric forest.
	metricByID := map[int]*core.Metric{}
	var buildMetric func(xm xMetric, parent *core.Metric) error
	buildMetric = func(xm xMetric, parent *core.Metric) error {
		if !core.ValidUnit(core.Unit(xm.UOM)) {
			return fmt.Errorf("cubexml: metric %q has invalid unit %q", xm.Name, xm.UOM)
		}
		xm.UOM = core.Intern(xm.UOM)
		var m *core.Metric
		if parent == nil {
			m = e.NewMetric(core.Intern(xm.Name), core.Unit(xm.UOM), xm.Descr)
		} else {
			if core.Unit(xm.UOM) != parent.Unit {
				return fmt.Errorf("cubexml: metric %q unit %q differs from parent unit %q", xm.Name, xm.UOM, parent.Unit)
			}
			m = parent.NewChild(core.Intern(xm.Name), xm.Descr)
		}
		if _, dup := metricByID[xm.ID]; dup {
			return fmt.Errorf("cubexml: duplicate metric id %d", xm.ID)
		}
		metricByID[xm.ID] = m
		for _, c := range xm.Children {
			if err := buildMetric(c, m); err != nil {
				return err
			}
		}
		return nil
	}
	for _, xm := range doc.Metrics {
		if err := buildMetric(xm, nil); err != nil {
			return nil, nil, nil, err
		}
	}

	// Program dimension.
	regionByID := map[int]*core.Region{}
	for _, xr := range doc.Program.Regions {
		if _, dup := regionByID[xr.ID]; dup {
			return nil, nil, nil, fmt.Errorf("cubexml: duplicate region id %d", xr.ID)
		}
		rg := e.NewRegion(core.Intern(xr.Name), core.Intern(xr.Mod), xr.Begin, xr.End)
		rg.Description = xr.Descr
		regionByID[xr.ID] = rg
	}
	siteByID := map[int]*core.CallSite{}
	for _, xs := range doc.Program.Sites {
		callee, ok := regionByID[xs.Callee]
		if !ok {
			return nil, nil, nil, fmt.Errorf("cubexml: call site %d references unknown region %d", xs.ID, xs.Callee)
		}
		if _, dup := siteByID[xs.ID]; dup {
			return nil, nil, nil, fmt.Errorf("cubexml: duplicate call site id %d", xs.ID)
		}
		siteByID[xs.ID] = e.NewCallSite(core.Intern(xs.File), xs.Line, callee)
	}
	cnodeByID := map[int]*core.CallNode{}
	var buildCNode func(xn xCNode, parent *core.CallNode) error
	buildCNode = func(xn xCNode, parent *core.CallNode) error {
		site, ok := siteByID[xn.Site]
		if !ok {
			return fmt.Errorf("cubexml: call node %d references unknown call site %d", xn.ID, xn.Site)
		}
		var n *core.CallNode
		if parent == nil {
			n = e.NewCallRoot(site)
		} else {
			n = parent.NewChild(site)
		}
		if _, dup := cnodeByID[xn.ID]; dup {
			return fmt.Errorf("cubexml: duplicate call node id %d", xn.ID)
		}
		cnodeByID[xn.ID] = n
		for _, c := range xn.Children {
			if err := buildCNode(c, n); err != nil {
				return err
			}
		}
		return nil
	}
	for _, xn := range doc.Program.CNodes {
		if err := buildCNode(xn, nil); err != nil {
			return nil, nil, nil, err
		}
	}

	// System forest.
	for _, xm := range doc.Machines {
		mach := e.NewMachine(core.Intern(xm.Name))
		for _, xn := range xm.Nodes {
			nd := mach.NewNode(core.Intern(xn.Name))
			for _, xp := range xn.Procs {
				p := nd.NewProcess(xp.Rank, core.Intern(xp.Name))
				for _, xt := range xp.Threads {
					p.NewThread(xt.ID, core.Intern(xt.Name))
				}
			}
		}
	}
	e.Invalidate()

	// Optional topology.
	if doc.Topology != nil {
		topo := &core.Topology{
			Name:   doc.Topology.Name,
			Dims:   doc.Topology.Dims,
			Coords: map[int][]int{},
		}
		for _, xc := range doc.Topology.Coords {
			fields := strings.Fields(xc.Values)
			coord := make([]int, 0, len(fields))
			for _, f := range fields {
				v, err := strconv.Atoi(f)
				if err != nil {
					return nil, nil, nil, fmt.Errorf("cubexml: bad topology coordinate %q: %w", f, err)
				}
				coord = append(coord, v)
			}
			topo.Coords[xc.Rank] = coord
		}
		e.SetTopology(topo)
	}

	return e, metricByID, cnodeByID, nil
}

// applySeverity replays the decoded severity matrices into the experiment's
// map store; this is the legacy severity path the fast reader's parallel
// columnar ingest is measured against. SetSeverity semantics apply: zero
// values delete, repeated tuples overwrite.
func applySeverity(e *core.Experiment, matrices []xMatrix, metricByID map[int]*core.Metric, cnodeByID map[int]*core.CallNode) error {
	threads := e.Threads()
	for _, mx := range matrices {
		m, ok := metricByID[mx.Metric]
		if !ok {
			return fmt.Errorf("cubexml: severity matrix references unknown metric id %d", mx.Metric)
		}
		for _, row := range mx.Rows {
			c, ok := cnodeByID[row.CNode]
			if !ok {
				return fmt.Errorf("cubexml: severity row references unknown call node id %d", row.CNode)
			}
			fields := strings.Fields(row.Values)
			if len(fields) != len(threads) {
				return fmt.Errorf("cubexml: severity row for metric %d cnode %d has %d values, want %d (one per thread)",
					mx.Metric, row.CNode, len(fields), len(threads))
			}
			for ti, f := range fields {
				v, err := strconv.ParseFloat(f, 64)
				if err != nil {
					return fmt.Errorf("cubexml: bad severity value %q: %w", f, err)
				}
				if math.IsNaN(v) || math.IsInf(v, 0) {
					// Reject non-finite severities right at the parse
					// boundary: Validate would catch them too, but only
					// after the whole document is decoded, and with a less
					// precise location.
					return fmt.Errorf("cubexml: non-finite severity %q for metric %d, call node %d, thread %d",
						f, mx.Metric, row.CNode, ti)
				}
				e.SetSeverity(m, c, threads[ti], v)
			}
		}
	}
	return nil
}

// ReadFile reads an experiment from the named file.
func ReadFile(path string) (*core.Experiment, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Read(f)
}

func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}
