// Package cluster describes the physical resources of a data-analytics
// cluster and the YARN-style carving of node memory into homogeneous
// containers (Figure 1 of the paper). Two specs mirror the paper's
// evaluation clusters (Table 3): an 8-node physical cluster with 6GB nodes
// (Cluster A) and a 4-node virtual cluster with 32GB nodes (Cluster B).
package cluster

import (
	"fmt"
	"strings"
)

// Spec describes one cluster.
type Spec struct {
	Name  string
	Nodes int
	// MemoryPerNodeMB is the node's physical memory.
	MemoryPerNodeMB float64
	// AllocatableHeapMB is the per-node JVM heap budget the resource manager
	// hands out (node memory minus OS/NodeManager overheads). On the paper's
	// Cluster A this is 4404MB: the MaxResourceAllocation heap for one
	// container.
	AllocatableHeapMB float64
	// OSReserveMB is memory kept for the OS and the node manager; the
	// remainder bounds the physical (RSS) usage of the containers.
	OSReserveMB  float64
	CoresPerNode int
	// DiskMBps is the aggregate disk bandwidth of one node.
	DiskMBps float64
	// NetworkMBps is the network bandwidth of one node.
	NetworkMBps float64
}

// ByName looks up one of the paper's clusters by name, case-insensitively;
// the empty name is Cluster A, the default everywhere.
func ByName(name string) (Spec, bool) {
	switch strings.ToUpper(name) {
	case "", "A":
		return A(), true
	case "B":
		return B(), true
	}
	return Spec{}, false
}

// A returns the paper's Cluster A: 8 physical nodes, 6GB memory and 8 cores
// each, 1Gbps network.
func A() Spec {
	return Spec{
		Name:              "A",
		Nodes:             8,
		MemoryPerNodeMB:   6144,
		AllocatableHeapMB: 4404,
		OSReserveMB:       614,
		CoresPerNode:      8,
		DiskMBps:          140,
		NetworkMBps:       110, // ~1Gbps
	}
}

// B returns the paper's Cluster B: 4 virtual EC2 nodes, 32GB memory,
// 31 ECU (~16 vcores), 10Gbps network.
func B() Spec {
	return Spec{
		Name:              "B",
		Nodes:             4,
		MemoryPerNodeMB:   32768,
		AllocatableHeapMB: 16384,
		OSReserveMB:       2048,
		CoresPerNode:      16,
		DiskMBps:          250,
		NetworkMBps:       1100, // ~10Gbps
	}
}

// HeapPerContainer returns the JVM heap of each of n homogeneous containers
// on one node: the node heap budget divided equally (the paper's example:
// 4404, 2202, 1468, 1101MB for n = 1..4).
func (s Spec) HeapPerContainer(n int) float64 {
	if n < 1 {
		n = 1
	}
	return s.AllocatableHeapMB / float64(n)
}

// PhysCapPerContainer returns the resource manager's physical-memory limit
// for each of n containers: the node memory minus the OS reserve, split
// equally. A container whose RSS exceeds this is killed (§3.1, Figure 11).
func (s Spec) PhysCapPerContainer(n int) float64 {
	if n < 1 {
		n = 1
	}
	return (s.MemoryPerNodeMB - s.OSReserveMB) / float64(n)
}

// MaxConcurrencyPerContainer bounds Task Concurrency: the number of
// concurrently running tasks on a node is limited by its physical cores
// (§6.1), so each of n containers gets cores/n slots at most.
func (s Spec) MaxConcurrencyPerContainer(n int) int {
	if n < 1 {
		n = 1
	}
	m := s.CoresPerNode / n
	if m < 1 {
		m = 1
	}
	return m
}

// Containers returns the total container count for n containers per node.
func (s Spec) Containers(n int) int { return s.Nodes * n }

// String names the cluster for logs.
func (s Spec) String() string {
	return fmt.Sprintf("cluster %s: %d nodes × (%.0fMB mem, %d cores)",
		s.Name, s.Nodes, s.MemoryPerNodeMB, s.CoresPerNode)
}
