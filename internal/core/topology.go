package core

import (
	"fmt"
	"slices"
	"sort"
)

// Topology is an optional Cartesian process topology attached to an
// experiment — the paper's future-work extension ("the integration of
// topology information, for example obtained from instrumented MPI topology
// routines, into our data model could open the way for new automatic
// analysis and visualization tools"). It maps process ranks onto
// coordinates in an n-dimensional grid, enabling physical-layout views of
// the severity distribution.
type Topology struct {
	// Name labels the topology, e.g. "process grid".
	Name string
	// Dims are the grid extents per dimension (row-major display order).
	Dims []int
	// Coords maps each rank to its coordinate vector (len == len(Dims)).
	Coords map[int][]int
}

// NewCartesian builds a dense Cartesian topology for ranks 0..n-1 laid out
// row-major over the given dims (n = product of dims).
func NewCartesian(name string, dims ...int) (*Topology, error) {
	if len(dims) == 0 {
		return nil, fmt.Errorf("core: topology needs at least one dimension")
	}
	n := 1
	for _, d := range dims {
		if d <= 0 {
			return nil, fmt.Errorf("core: topology dimension %d is not positive", d)
		}
		n *= d
	}
	t := &Topology{Name: name, Dims: append([]int(nil), dims...), Coords: make(map[int][]int, n)}
	for rank := 0; rank < n; rank++ {
		coord := make([]int, len(dims))
		rest := rank
		for i := len(dims) - 1; i >= 0; i-- {
			coord[i] = rest % dims[i]
			rest /= dims[i]
		}
		t.Coords[rank] = coord
	}
	return t, nil
}

// RankAt returns the rank at the given coordinate, or -1 if unmapped.
func (t *Topology) RankAt(coord ...int) int {
	if len(coord) != len(t.Dims) {
		return -1
	}
	for rank, c := range t.Coords {
		if slices.Equal(c, coord) {
			return rank
		}
	}
	return -1
}

// Equal reports whether two topologies describe the same layout.
func (t *Topology) Equal(o *Topology) bool {
	if t == nil || o == nil {
		return t == o
	}
	if len(t.Dims) != len(o.Dims) || len(t.Coords) != len(o.Coords) {
		return false
	}
	for i := range t.Dims {
		if t.Dims[i] != o.Dims[i] {
			return false
		}
	}
	for rank, c := range t.Coords {
		oc, ok := o.Coords[rank]
		if !ok || len(oc) != len(c) {
			return false
		}
		for i := range c {
			if c[i] != oc[i] {
				return false
			}
		}
	}
	return true
}

// Clone returns a deep copy.
func (t *Topology) Clone() *Topology {
	if t == nil {
		return nil
	}
	c := &Topology{Name: t.Name, Dims: append([]int(nil), t.Dims...), Coords: make(map[int][]int, len(t.Coords))}
	for rank, coord := range t.Coords {
		c.Coords[rank] = append([]int(nil), coord...)
	}
	return c
}

// validate checks the topology against the experiment's processes.
func (t *Topology) validate(e *Experiment) error {
	if len(t.Dims) == 0 {
		return invalid("system", "topology %q has no dimensions", t.Name)
	}
	for _, d := range t.Dims {
		if d <= 0 {
			return invalid("system", "topology %q has non-positive dimension", t.Name)
		}
	}
	seen := map[string]int{}
	for rank, coord := range t.Coords {
		if e.FindProcess(rank) == nil {
			return invalid("system", "topology %q maps unknown rank %d", t.Name, rank)
		}
		if len(coord) != len(t.Dims) {
			return invalid("system", "topology %q rank %d has %d coordinates, want %d",
				t.Name, rank, len(coord), len(t.Dims))
		}
		key := ""
		for i, c := range coord {
			if c < 0 || c >= t.Dims[i] {
				return invalid("system", "topology %q rank %d coordinate %v out of bounds", t.Name, rank, coord)
			}
			key += fmt.Sprintf("%d,", c)
		}
		if prev, dup := seen[key]; dup {
			return invalid("system", "topology %q ranks %d and %d share coordinate %v", t.Name, prev, rank, coord)
		}
		seen[key] = rank
	}
	return nil
}

// SortedRanks returns the mapped ranks in ascending order.
func (t *Topology) SortedRanks() []int {
	out := make([]int, 0, len(t.Coords))
	for rank := range t.Coords {
		out = append(out, rank)
	}
	sort.Ints(out)
	return out
}

// SetTopology attaches a Cartesian topology to the experiment (nil
// detaches). It is validated by Experiment.Validate.
func (e *Experiment) SetTopology(t *Topology) { e.topology = t }

// Topology returns the attached topology, or nil.
func (e *Experiment) Topology() *Topology { return e.topology }
