package emu

import (
	"encoding/binary"

	"elag/internal/isa"
)

// pageBits selects 64 KiB pages for the sparse memory image.
const pageBits = 16
const pageSize = 1 << pageBits
const pageMask = pageSize - 1

// Memory is a sparse, paged, little-endian byte-addressable data memory.
// Pages are allocated on first touch; unwritten memory reads as zero.
// The zero value is ready to use.
type Memory struct {
	pages map[int64]*[pageSize]byte
}

// NewMemory returns an empty memory image.
func NewMemory() *Memory {
	return &Memory{pages: make(map[int64]*[pageSize]byte)}
}

func (m *Memory) page(addr int64, create bool) *[pageSize]byte {
	if m.pages == nil {
		m.pages = make(map[int64]*[pageSize]byte)
	}
	key := addr >> pageBits
	p := m.pages[key]
	if p == nil && create {
		p = new([pageSize]byte)
		m.pages[key] = p
	}
	return p
}

// LoadImage copies data into memory starting at base.
func (m *Memory) LoadImage(base int64, data []byte) {
	for i, b := range data {
		m.SetByte(base+int64(i), b)
	}
}

// ReadByte returns the byte at addr.
func (m *Memory) ByteAt(addr int64) byte {
	p := m.page(addr, false)
	if p == nil {
		return 0
	}
	return p[addr&pageMask]
}

// WriteByte stores b at addr.
func (m *Memory) SetByte(addr int64, b byte) {
	m.page(addr, true)[addr&pageMask] = b
}

// Read returns the width-byte little-endian value at addr, zero-extended.
// Width must be 1, 2, 4 or 8.
func (m *Memory) Read(addr int64, width int) uint64 {
	// Fast path: access within one page.
	if p := m.page(addr, false); p != nil && int(addr&pageMask)+width <= pageSize {
		off := addr & pageMask
		switch width {
		case 1:
			return uint64(p[off])
		case 2:
			return uint64(binary.LittleEndian.Uint16(p[off:]))
		case 4:
			return uint64(binary.LittleEndian.Uint32(p[off:]))
		case 8:
			return binary.LittleEndian.Uint64(p[off:])
		}
	}
	var v uint64
	for i := 0; i < width; i++ {
		v |= uint64(m.ByteAt(addr+int64(i))) << (8 * i)
	}
	return v
}

// Write stores the low width bytes of v at addr, little-endian.
func (m *Memory) Write(addr int64, v uint64, width int) {
	if p := m.page(addr, true); int(addr&pageMask)+width <= pageSize {
		off := addr & pageMask
		switch width {
		case 1:
			p[off] = byte(v)
			return
		case 2:
			binary.LittleEndian.PutUint16(p[off:], uint16(v))
			return
		case 4:
			binary.LittleEndian.PutUint32(p[off:], uint32(v))
			return
		case 8:
			binary.LittleEndian.PutUint64(p[off:], v)
			return
		}
	}
	for i := 0; i < width; i++ {
		m.SetByte(addr+int64(i), byte(v>>(8*i)))
	}
}

// ReadSigned returns the width-byte value at addr sign-extended to int64.
func (m *Memory) ReadSigned(addr int64, width int) int64 {
	v := m.Read(addr, width)
	shift := uint(64 - 8*width)
	return int64(v<<shift) >> shift
}

// CheckAccess validates an access of width bytes at addr against the
// architectural address space and natural alignment, returning a typed
// fault (without position context) or nil. Read/Write themselves stay
// infallible on the sparse image; the emulator checks before accessing.
func (m *Memory) CheckAccess(addr int64, width int) *isa.Fault {
	return isa.CheckAccess(addr, width)
}
