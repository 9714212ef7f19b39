package sweep

import (
	"bytes"
	"strconv"
	"strings"

	"facile/internal/uarch"
)

// design is a grid's design points in typed form. Each axis value is
// decoded once, onto the base, into the uarch.Setting it writes, and its
// name fragment and overlay member are built once, so a design point's
// configuration is the base with one setting per axis written onto it, and
// its name and overlay are its values' fragments joined.
type design struct {
	base   string // the base arch's name
	points int
	axes   []designAxis
	// order lists the axes in the order an overlay lists their members:
	// the spec keys in axis order, then the role_ports members.
	order []int
	roles bool // whether some axis is a role_ports.<role> one
	cfg   *uarch.Config
}

// designAxis is one axis of a design: per value, its name fragment
// ("param=label"), its overlay member (`"param":value`, or `"role":value`
// inside the overlay's role_ports object) and, on a design with a base
// configuration, the setting it writes.
type designAxis struct {
	stride   int // how many points one step of the axis spans
	role     bool
	names    []string
	members  [][]byte
	settings []*uarch.Setting
}

// newDesign builds g's design; base is the configuration of g's base, or
// nil for a design that only names points and spells their overlays. g
// must be valid.
func newDesign(g *Grid, base *uarch.Config) *design {
	d := &design{base: g.Base, points: g.Points(), axes: make([]designAxis, len(g.Axes)), cfg: base}
	stride := d.points
	for k := range g.Axes {
		ax, da := &g.Axes[k], &d.axes[k]
		stride /= len(ax.Values)
		da.stride = stride
		key := ax.Param
		key, da.role = strings.CutPrefix(key, "role_ports.")
		da.names = make([]string, len(ax.Values))
		da.members = make([][]byte, len(ax.Values))
		for j, v := range ax.Values {
			da.names[j] = ax.Param + "=" + ax.label(j)
			v = bytes.TrimSpace(v)
			da.members[j] = append(append(strconv.AppendQuote(nil, key), ':'), v...)
			if base == nil {
				continue
			}
			if da.role {
				da.settings = append(da.settings, uarch.DecodeRoleSetting(base, key, v))
			} else {
				da.settings = append(da.settings, uarch.DecodeSetting(base, key, v))
			}
		}
		if da.role {
			d.roles = true
		} else {
			d.order = append(d.order, k)
		}
	}
	for k := range d.axes {
		if d.axes[k].role {
			d.order = append(d.order, k)
		}
	}
	return d
}

// value returns the index of axis k's value at point p.
func (d *design) value(p, k int) int {
	ax := &d.axes[k]
	return p / ax.stride % len(ax.names)
}

// name returns point p's name: the base and each axis value's fragment,
// joined by "~"; the base point of a grid without axes is "<base>~base".
func (d *design) name(p int) string {
	if len(d.axes) == 0 {
		return d.base + "~base"
	}
	n := len(d.base)
	for k := range d.axes {
		n += 1 + len(d.axes[k].names[d.value(p, k)])
	}
	var sb strings.Builder
	sb.Grow(n)
	sb.WriteString(d.base)
	for k := range d.axes {
		sb.WriteByte('~')
		sb.WriteString(d.axes[k].names[d.value(p, k)])
	}
	return sb.String()
}

// overlay returns point p's overlay: one member per axis, in axis order,
// with the role_ports.<role> axes folded into one role_ports object after
// the others, so the overlay is plain spec JSON. The base point of a grid
// without axes has none.
func (d *design) overlay(p int) []byte {
	if len(d.axes) == 0 {
		return nil
	}
	n := len(`{"role_ports":{}}`)
	for k := range d.axes {
		n += 1 + len(d.axes[k].members[d.value(p, k)])
	}
	b := make([]byte, 1, n)
	b[0] = '{'
	for i, k := range d.order {
		ax := &d.axes[k]
		switch {
		case ax.role && (i == 0 || !d.axes[d.order[i-1]].role):
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, `"role_ports":{`...)
		case i > 0:
			b = append(b, ',')
		}
		b = append(b, ax.members[d.value(p, k)]...)
	}
	if d.roles {
		b = append(b, '}')
	}
	return append(b, '}')
}

// derive sets cfg to point p's configuration, named name, through the
// settings of its values in overlay order (settings is scratch of the
// design's axis count), and returns the error deriving the point's
// overlay reports, as uarch.Registry.DeriveConfig would.
func (d *design) derive(cfg *uarch.Config, p int, name string, settings []*uarch.Setting) error {
	settings = settings[:0]
	for _, k := range d.order {
		settings = append(settings, d.axes[k].settings[d.value(p, k)])
	}
	return uarch.Derive(cfg, d.cfg, name, settings)
}

// Derive derives every design point of g from base, the configuration of
// g's base, exactly as a sweep of g derives them, and calls yield with each
// point's index, name and derivation error (nil for a valid point), in
// enumeration order. g must be valid.
func Derive(g *Grid, base *uarch.Config, yield func(p int, name string, err error)) {
	d := newDesign(g, base)
	var cfg uarch.Config
	settings := make([]*uarch.Setting, 0, len(d.axes))
	for p := 0; p < d.points; p++ {
		name := d.name(p)
		yield(p, name, d.derive(&cfg, p, name, settings))
	}
}
