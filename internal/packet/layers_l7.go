package packet

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"
)

// Well-known application ports used for layer-7 classification.
const (
	PortFTPControl = 21
	PortDNS        = 53
	PortDHCPServer = 67
	PortDHCPClient = 68
)

// DHCPOp is the BOOTP op field.
type DHCPOp uint8

// BOOTP op codes.
const (
	DHCPBootRequest DHCPOp = 1
	DHCPBootReply   DHCPOp = 2
)

// DHCPMsgType is the DHCP message type (option 53).
type DHCPMsgType uint8

// DHCP message types (RFC 2131).
const (
	DHCPDiscover DHCPMsgType = 1
	DHCPOffer    DHCPMsgType = 2
	DHCPRequest  DHCPMsgType = 3
	DHCPDecline  DHCPMsgType = 4
	DHCPAck      DHCPMsgType = 5
	DHCPNak      DHCPMsgType = 6
	DHCPRelease  DHCPMsgType = 7
)

// String names the message type.
func (t DHCPMsgType) String() string {
	switch t {
	case DHCPDiscover:
		return "DISCOVER"
	case DHCPOffer:
		return "OFFER"
	case DHCPRequest:
		return "REQUEST"
	case DHCPDecline:
		return "DECLINE"
	case DHCPAck:
		return "ACK"
	case DHCPNak:
		return "NAK"
	case DHCPRelease:
		return "RELEASE"
	default:
		return fmt.Sprintf("DHCPMsgType(%d)", uint8(t))
	}
}

// DHCPv4 is a DHCP message: the BOOTP fixed fields this repository's
// properties refer to, plus the decoded options relevant to lease
// monitoring. Unknown options are preserved opaquely so that
// decode-then-encode round-trips.
type DHCPv4 struct {
	Op          DHCPOp
	Xid         uint32
	ClientIP    IPv4 // ciaddr
	YourIP      IPv4 // yiaddr
	ServerIP    IPv4 // siaddr
	ClientMAC   MAC  // chaddr
	MsgType     DHCPMsgType
	RequestedIP IPv4   // option 50, zero if absent
	ServerID    IPv4   // option 54, zero if absent
	LeaseSecs   uint32 // option 51, zero if absent
	// Extra holds unrecognized options in (code, value) order.
	Extra []DHCPOption
}

// DHCPOption is a raw DHCP option.
type DHCPOption struct {
	Code  uint8
	Value []byte
}

const dhcpFixedLen = 236 + 4 // BOOTP fields + magic cookie

// walk lays out the message: the BOOTP fixed part and the magic cookie
// in place, then the options.
func (d *DHCPv4) walk(c *cursor) {
	c.check(d.layout(c.take(dhcpFixedLen), c.enc))
	d.options(c)
}

// layout moves the BOOTP fixed part and the magic cookie between d and
// b, their 240 bytes.
func (d *DHCPv4) layout(b []byte, enc bool) error {
	u8(b[0:1], &d.Op, enc)
	u32(b[4:8], &d.Xid, enc)
	addr(b[12:16], d.ClientIP[:], enc)
	addr(b[16:20], d.YourIP[:], enc)
	addr(b[20:24], d.ServerIP[:], enc)
	addr(b[28:34], d.ClientMAC[:], enc)
	if err := constant(b[1:3], "\x01\x06", "DHCP hardware type and length (Ethernet)", enc); err != nil {
		return err
	}
	return constant(b[236:240], "\x63\x82\x53\x63", "DHCP magic cookie", enc)
}

// DHCP option codes handled by the codec.
const (
	dhcpOptPad         = 0
	dhcpOptRequestedIP = 50
	dhcpOptLeaseTime   = 51
	dhcpOptMsgType     = 53
	dhcpOptServerID    = 54
	dhcpOptEnd         = 255
)

// dhcpOptions are the options DHCPv4 keeps in fields, in the order
// encode writes them, with their values' lengths.
var dhcpOptions = [...]struct{ code, n uint8 }{
	{dhcpOptMsgType, 1}, {dhcpOptRequestedIP, 4}, {dhcpOptServerID, 4}, {dhcpOptLeaseTime, 4},
}

// option moves the value of a known option between d and v, in place.
func (d *DHCPv4) option(code uint8, v []byte, enc bool) {
	switch code {
	case dhcpOptMsgType:
		u8(v, &d.MsgType, enc)
	case dhcpOptRequestedIP:
		addr(v, d.RequestedIP[:], enc)
	case dhcpOptServerID:
		addr(v, d.ServerID[:], enc)
	case dhcpOptLeaseTime:
		u32(v, &d.LeaseSecs, enc)
	}
}

// optionLen is the value length of a known option, 0 for a code decode
// keeps in Extra and -1 for Pad and End, which carry none.
func optionLen(code uint8) int {
	if code == dhcpOptPad || code == dhcpOptEnd {
		return -1
	}
	for _, o := range dhcpOptions {
		if o.code == code {
			return int(o.n)
		}
	}
	return 0
}

// options lays out the options after the magic cookie, up to End.
// Encode writes each known option whose value is not zero, then Extra;
// decode reads them in any order, skips Pad, and keeps an option with no
// field of its own in Extra. So encode refuses an Extra option decode
// would not keep there: a known code, Pad, End, or a value over 255
// bytes.
func (d *DHCPv4) options(c *cursor) {
	if c.enc {
		for _, o := range dhcpOptions {
			var v [4]byte
			if d.option(o.code, v[:o.n], true); v != [4]byte{} {
				c.b = append(append(c.b, o.code, o.n), v[:o.n]...)
			}
		}
		for _, o := range d.Extra {
			if optionLen(o.Code) != 0 || len(o.Value) > 255 {
				c.failf("packet: DHCP option %d with a %d-byte value cannot be an Extra option", o.Code, len(o.Value))
				return
			}
			c.b = append(append(c.b, o.Code, byte(len(o.Value))), o.Value...)
		}
		c.b = append(c.b, dhcpOptEnd)
		return
	}
	for c.err == nil {
		code := c.take(1)[0]
		switch code {
		case dhcpOptEnd:
			return
		case dhcpOptPad:
			continue
		}
		v := c.take(int(c.take(1)[0]))
		switch n := optionLen(code); {
		case c.err != nil: // truncated: the loop ends
		case n == 0:
			d.Extra = append(d.Extra, DHCPOption{Code: code, Value: append([]byte(nil), v...)})
		case len(v) != n:
			c.failf("packet: DHCP option %d of length %d, want %d", code, len(v), n)
		default:
			d.option(code, v, false)
		}
	}
}

// DNS is a minimal DNS message: header plus a single question and any
// number of A-record answers — the shape the monitored resolver traffic
// takes. It is sufficient for properties that correlate queries with
// responses.
type DNS struct {
	ID       uint16
	Response bool
	RCode    uint8
	QName    string
	QType    uint16
	Answers  []DNSAnswer
}

// DNSAnswer is an A-record answer.
type DNSAnswer struct {
	Name string
	TTL  uint32
	Addr IPv4
}

// walk lays out the message: the header in place, then the question and
// the answers.
func (d *DNS) walk(c *cursor) {
	an := uint16(len(d.Answers))
	c.check(d.layout(c.take(12), &an, c.enc))
	c.name(&d.QName)
	q := c.take(4)
	u16(q[0:2], &d.QType, c.enc)
	c.check(constant(q[2:4], "\x00\x01", "DNS question class (IN)", c.enc))
	for i := 0; i < int(an) && c.err == nil; i++ {
		if !c.enc {
			d.Answers = append(d.Answers, DNSAnswer{})
		}
		a := &d.Answers[i]
		c.name(&a.Name)
		r := c.take(14)
		c.check(constant(r[0:4], "\x00\x01\x00\x01", "DNS answer type and class (A, IN)", c.enc))
		u32(r[4:8], &a.TTL, c.enc)
		c.check(constant(r[8:10], "\x00\x04", "DNS answer data length (an IPv4 address)", c.enc))
		addr(r[10:14], a.Addr[:], c.enc)
	}
}

// layout moves the header between d and b, its 12 bytes, with the answer
// count an (len(d.Answers) on encode). The question count is the
// constant 1; NSCOUNT and ARCOUNT are zero on encode and skipped on
// decode.
func (d *DNS) layout(b []byte, an *uint16, enc bool) error {
	u16(b[0:2], &d.ID, enc)
	flags := uint16(d.RCode) & 0x000f
	if d.Response {
		flags |= 0x8000
	}
	u16(b[2:4], &flags, enc)
	if !enc {
		d.Response, d.RCode = flags&0x8000 != 0, uint8(flags&0x000f)
	}
	u16(b[6:8], an, enc)
	return constant(b[4:6], "\x00\x01", "DNS question count", enc)
}

// name lays out a DNS name: length-prefixed labels ending in a zero
// byte, uncompressed. Each direction holds a name to what the other
// reads back, within RFC 1035's limits: labels of 1 to 63 bytes with no
// '.', at most 255 bytes on the wire.
func (c *cursor) name(s *string) {
	if c.enc {
		start := len(c.b)
		for rest, more := *s, *s != ""; more; {
			var label string
			label, rest, more = strings.Cut(rest, ".")
			if len(label) == 0 || len(label) > 63 {
				c.failf("packet: DNS name %q has a label of %d bytes", *s, len(label))
				return
			}
			c.b = append(append(c.b, byte(len(label))), label...)
		}
		if c.b = append(c.b, 0); len(c.b)-start > 255 {
			c.failf("packet: DNS name %q exceeds 255 bytes", *s)
		}
		return
	}
	start := c.off
	var name []byte
	for c.err == nil {
		n := int(c.take(1)[0])
		if n == 0 {
			break
		}
		if n > 63 {
			c.failf("packet: DNS label byte %#02x unsupported (compressed or over 63 bytes)", n)
			return
		}
		label := c.take(n)
		if bytes.IndexByte(label, '.') >= 0 {
			c.failf("packet: DNS label %q contains a dot", label)
			return
		}
		if len(name) > 0 {
			name = append(name, '.')
		}
		name = append(name, label...)
	}
	if c.off-start > 255 {
		c.failf("packet: DNS name of %d bytes exceeds 255", c.off-start)
	}
	*s = string(name)
}

// FTPControl is one line of an FTP control conversation. Commands carry a
// verb and argument; replies carry a numeric code and text. For PORT
// commands (and 227 passive-mode replies) the announced data-connection
// address is decoded — the field the paper's FTP property (from FAST)
// matches against the subsequent data connection.
type FTPControl struct {
	// Command is the verb ("PORT", "RETR", ...) for client lines, empty
	// for server replies.
	Command string
	// Arg is the raw argument text of a command line.
	Arg string
	// ReplyCode is the numeric code of a server reply, 0 for commands.
	ReplyCode int
	// ReplyText is the text of a server reply.
	ReplyText string
	// DataIP and DataPort are the decoded h1,h2,h3,h4,p1,p2 address from a
	// PORT command or 227 reply; DataPort is 0 when absent.
	DataIP   IPv4
	DataPort uint16
}

// appendLine appends the control line f stands for. It refuses a line
// break in any of f's texts: decode would read the frame as more than
// one line and leave the payload raw.
func (f *FTPControl) appendLine(b []byte) ([]byte, error) {
	if strings.ContainsAny(f.Command, "\r\n") || strings.ContainsAny(f.Arg, "\r\n") || strings.ContainsAny(f.ReplyText, "\r\n") {
		return nil, fmt.Errorf("packet: FTP control text contains a line break")
	}
	switch {
	case f.ReplyCode != 0:
		b = append(strconv.AppendInt(b, int64(f.ReplyCode), 10), ' ')
		b = append(b, f.ReplyText...)
	case f.Arg != "":
		b = append(append(b, f.Command...), ' ')
		b = append(b, f.Arg...)
	default:
		b = append(b, f.Command...)
	}
	return append(b, "\r\n"...), nil
}

// parseFTPHostPort parses "h1,h2,h3,h4,p1,p2".
func parseFTPHostPort(s string) (IPv4, uint16, bool) {
	parts := strings.Split(strings.TrimSpace(s), ",")
	if len(parts) != 6 {
		return IPv4{}, 0, false
	}
	var nums [6]int
	for i, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || v < 0 || v > 255 {
			return IPv4{}, 0, false
		}
		nums[i] = v
	}
	ip := IPv4{byte(nums[0]), byte(nums[1]), byte(nums[2]), byte(nums[3])}
	return ip, uint16(nums[4])<<8 | uint16(nums[5]), true
}

func decodeFTPControl(data []byte) (*FTPControl, error) {
	line := strings.TrimRight(string(data), "\r\n")
	if line == "" {
		return nil, fmt.Errorf("packet: empty FTP control line")
	}
	if strings.ContainsAny(line, "\r\n") {
		// Not one control line: appendLine could not reproduce it, so the
		// payload stays raw.
		return nil, fmt.Errorf("packet: FTP control data is not one line")
	}
	f := &FTPControl{}
	if code, err := strconv.Atoi(strings.SplitN(line, " ", 2)[0]); err == nil && code >= 100 && code <= 599 {
		f.ReplyCode = code
		if idx := strings.Index(line, " "); idx >= 0 {
			f.ReplyText = line[idx+1:]
		}
		if code == 227 { // Entering Passive Mode (h1,h2,h3,h4,p1,p2)
			if open := strings.Index(f.ReplyText, "("); open >= 0 {
				if close := strings.Index(f.ReplyText[open:], ")"); close > 0 {
					if ip, port, ok := parseFTPHostPort(f.ReplyText[open+1 : open+close]); ok {
						f.DataIP, f.DataPort = ip, port
					}
				}
			}
		}
		return f, nil
	}
	fields := strings.SplitN(line, " ", 2)
	f.Command = strings.ToUpper(fields[0])
	if len(fields) == 2 {
		f.Arg = fields[1]
	}
	if f.Command == "PORT" {
		if ip, port, ok := parseFTPHostPort(f.Arg); ok {
			f.DataIP, f.DataPort = ip, port
		} else {
			return nil, fmt.Errorf("packet: malformed FTP PORT argument %q", f.Arg)
		}
	}
	return f, nil
}
