package core5g

import (
	"fmt"

	"github.com/seed5g/seed/internal/radio"
	"github.com/seed5g/seed/internal/sched"
)

// Cells models a multi-cell deployment sharing one core: the small-cell
// topology whose frequent handovers drive the §2 failure statistics. Each
// cell is a full gNB with its own tracking area; UEs hand over between
// them, and a handover may lose the AMF-side context transfer — the
// mechanistic origin of the "UE identity cannot be derived" failures.
type Cells struct {
	k    *sched.Kernel
	net  *Network
	gnbs map[int]*GNB
	// ueCell tracks which cell each UE is currently served by.
	ueCell map[string]int
	// ueTx remembers each UE's downlink transmit function so handovers
	// can re-home it.
	ueTx map[string]func(any) bool

	// ContextLossProb is the probability that a handover's context
	// transfer fails (the new TA cannot derive the UE identity).
	ContextLossProb float64
	// edgeLoss overrides ContextLossProb for specific directed (from, to)
	// cell pairs — e.g. a handover crossing an AMF-pool boundary loses
	// context far more often than one inside a pool.
	edgeLoss map[[2]int]float64

	handovers   int
	contextLoss int
}

// NewCells builds n-1 additional cells next to the network's primary gNB
// (cell 0), re-wires the core's downlink path through the cell router,
// and returns the cell manager.
func NewCells(k *sched.Kernel, net *Network, n int) *Cells {
	c := &Cells{
		k: k, net: net,
		gnbs:   map[int]*GNB{0: net.GNB},
		ueCell: make(map[string]int),
		ueTx:   make(map[string]func(any) bool),
	}
	for i := 1; i < n; i++ {
		g := NewGNB(k, net.Frames, net.NASFrames)
		g.SetCore(net.AMF, net.UPF)
		c.gnbs[i] = g
	}
	net.SetRadioAccess(c)
	return c
}

// SendNAS implements RadioAccess: route to the UE's serving cell.
func (c *Cells) SendNAS(f *radio.NAS) bool {
	return c.ServingGNB(f.UE).SendNAS(f)
}

// SendData implements RadioAccess.
func (c *Cells) SendData(f *radio.Packet) bool {
	return c.ServingGNB(f.UE).SendData(f)
}

// AddBearer implements RadioAccess.
func (c *Cells) AddBearer(imsi string, sessionID uint8) {
	c.ServingGNB(imsi).AddBearer(imsi, sessionID)
}

// RemoveBearer implements RadioAccess.
func (c *Cells) RemoveBearer(imsi string, sessionID uint8) {
	c.ServingGNB(imsi).RemoveBearer(imsi, sessionID)
}

// Cell returns the gNB serving the given cell index.
func (c *Cells) Cell(i int) (*GNB, bool) {
	g, okG := c.gnbs[i]
	return g, okG
}

// Count returns the number of cells.
func (c *Cells) Count() int { return len(c.gnbs) }

// Stats returns (handovers performed, context transfers lost).
func (c *Cells) Stats() (handovers, contextLoss int) {
	return c.handovers, c.contextLoss
}

// SetEdgeContextLoss overrides the context-loss probability for handovers
// along the directed edge from → to.
func (c *Cells) SetEdgeContextLoss(from, to int, p float64) {
	if c.edgeLoss == nil {
		c.edgeLoss = make(map[[2]int]float64)
	}
	c.edgeLoss[[2]int{from, to}] = p
}

// lossProb returns the effective context-loss probability for the given
// directed handover.
func (c *Cells) lossProb(from, to int) float64 {
	if p, ok := c.edgeLoss[[2]int{from, to}]; ok {
		return p
	}
	return c.ContextLossProb
}

// Register places a UE in cell 0 with its downlink transmit function
// (call instead of GNB.AttachUE when using cells).
func (c *Cells) Register(imsi string, tx func(any) bool) {
	c.ueCell[imsi] = 0
	c.ueTx[imsi] = tx
	c.gnbs[0].AttachUE(imsi, tx)
}

// ServingCell returns the UE's current cell index.
func (c *Cells) ServingCell(imsi string) int { return c.ueCell[imsi] }

// ServingGNB returns the UE's current gNB (for wiring uplink handlers).
func (c *Cells) ServingGNB(imsi string) *GNB { return c.gnbs[c.ueCell[imsi]] }

// Handover moves a UE to the target cell. The radio re-homes immediately;
// whether the core-side context survives depends on ContextLossProb (or
// forceLoss). It reports whether the context transfer succeeded. The UE
// must then perform a mobility registration in the new tracking area —
// with a lost context, that registration meets cause 9.
func (c *Cells) Handover(imsi string, target int, forceLoss bool) (bool, error) {
	from, okU := c.ueCell[imsi]
	if !okU {
		return false, fmt.Errorf("core5g: UE %s not registered with cells", imsi)
	}
	to, okG := c.gnbs[target]
	if !okG {
		return false, fmt.Errorf("core5g: no cell %d", target)
	}
	if target == from {
		return true, nil
	}
	c.handovers++
	// The bearers and the RRC connection move with the UE.
	bearers := c.gnbs[from].Bearers(imsi)
	connected := c.gnbs[from].Connected(imsi)
	c.gnbs[from].DetachUE(imsi)
	to.AttachUE(imsi, c.ueTx[imsi])
	for _, b := range bearers {
		to.AddBearer(imsi, b)
	}
	to.setConnected(imsi, connected)
	c.ueCell[imsi] = target

	p := c.lossProb(from, target)
	lost := forceLoss || (p > 0 && c.k.Rand().Float64() < p)
	if lost {
		c.contextLoss++
		c.net.AMF.DesyncIdentity(imsi)
		return false, nil
	}
	return true, nil
}
