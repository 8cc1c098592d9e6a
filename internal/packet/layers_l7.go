package packet

import (
	"encoding/binary"
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

// DHCP option codes handled by the codec.
const (
	dhcpOptPad         = 0
	dhcpOptRequestedIP = 50
	dhcpOptLeaseTime   = 51
	dhcpOptMsgType     = 53
	dhcpOptServerID    = 54
	dhcpOptEnd         = 255
)

// dhcpMagic is the DHCP magic cookie that follows the BOOTP fixed fields.
var dhcpMagic = [4]byte{99, 130, 83, 99}

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

func (d *DHCPv4) encodeTo(b []byte) []byte {
	b = append(b, byte(d.Op), 1, 6, 0) // htype ethernet, hlen 6, hops 0
	b = binary.BigEndian.AppendUint32(b, d.Xid)
	b = append(b, 0, 0, 0, 0) // secs, flags
	b = append(b, d.ClientIP[:]...)
	b = append(b, d.YourIP[:]...)
	b = append(b, d.ServerIP[:]...)
	b = append(b, 0, 0, 0, 0) // giaddr
	b = append(b, d.ClientMAC[:]...)
	b = append(b, make([]byte, 10)...)  // chaddr padding
	b = append(b, make([]byte, 192)...) // sname + file
	b = append(b, dhcpMagic[:]...)
	if d.MsgType != 0 {
		b = append(b, dhcpOptMsgType, 1, byte(d.MsgType))
	}
	if !d.RequestedIP.IsZero() {
		b = append(b, dhcpOptRequestedIP, 4)
		b = append(b, d.RequestedIP[:]...)
	}
	if !d.ServerID.IsZero() {
		b = append(b, dhcpOptServerID, 4)
		b = append(b, d.ServerID[:]...)
	}
	if d.LeaseSecs != 0 {
		b = append(b, dhcpOptLeaseTime, 4)
		b = binary.BigEndian.AppendUint32(b, d.LeaseSecs)
	}
	for _, opt := range d.Extra {
		b = append(b, opt.Code, byte(len(opt.Value)))
		b = append(b, opt.Value...)
	}
	return append(b, dhcpOptEnd)
}

func decodeDHCPv4(data []byte) (*DHCPv4, error) {
	if len(data) < dhcpFixedLen {
		return nil, fmt.Errorf("packet: DHCP message too short (%d bytes)", len(data))
	}
	if [4]byte(data[236:240]) != dhcpMagic {
		return nil, fmt.Errorf("packet: missing DHCP magic cookie")
	}
	d := &DHCPv4{
		Op:  DHCPOp(data[0]),
		Xid: binary.BigEndian.Uint32(data[4:8]),
	}
	copy(d.ClientIP[:], data[12:16])
	copy(d.YourIP[:], data[16:20])
	copy(d.ServerIP[:], data[20:24])
	copy(d.ClientMAC[:], data[28:34])
	opts := data[240:]
	for len(opts) > 0 {
		code := opts[0]
		switch code {
		case dhcpOptPad:
			opts = opts[1:]
			continue
		case dhcpOptEnd:
			return d, nil
		}
		if len(opts) < 2 {
			return nil, fmt.Errorf("packet: truncated DHCP option %d", code)
		}
		n := int(opts[1])
		if len(opts) < 2+n {
			return nil, fmt.Errorf("packet: truncated DHCP option %d (want %d bytes)", code, n)
		}
		val := opts[2 : 2+n]
		switch code {
		case dhcpOptMsgType:
			if n != 1 {
				return nil, fmt.Errorf("packet: DHCP message-type option of length %d", n)
			}
			d.MsgType = DHCPMsgType(val[0])
		case dhcpOptRequestedIP:
			if n != 4 {
				return nil, fmt.Errorf("packet: DHCP requested-IP option of length %d", n)
			}
			copy(d.RequestedIP[:], val)
		case dhcpOptServerID:
			if n != 4 {
				return nil, fmt.Errorf("packet: DHCP server-ID option of length %d", n)
			}
			copy(d.ServerID[:], val)
		case dhcpOptLeaseTime:
			if n != 4 {
				return nil, fmt.Errorf("packet: DHCP lease-time option of length %d", n)
			}
			d.LeaseSecs = binary.BigEndian.Uint32(val)
		default:
			d.Extra = append(d.Extra, DHCPOption{Code: code, Value: append([]byte(nil), val...)})
		}
		opts = opts[2+n:]
	}
	return nil, fmt.Errorf("packet: DHCP options not terminated")
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

func (d *DNS) encodeTo(b []byte) []byte {
	b = binary.BigEndian.AppendUint16(b, d.ID)
	var flags uint16
	if d.Response {
		flags |= 0x8000
	}
	flags |= uint16(d.RCode) & 0x000f
	b = binary.BigEndian.AppendUint16(b, flags)
	b = binary.BigEndian.AppendUint16(b, 1) // QDCOUNT
	b = binary.BigEndian.AppendUint16(b, uint16(len(d.Answers)))
	b = binary.BigEndian.AppendUint16(b, 0) // NSCOUNT
	b = binary.BigEndian.AppendUint16(b, 0) // ARCOUNT
	b = appendDNSName(b, d.QName)
	b = binary.BigEndian.AppendUint16(b, d.QType)
	b = binary.BigEndian.AppendUint16(b, 1) // class IN
	for _, a := range d.Answers {
		b = appendDNSName(b, a.Name)
		b = binary.BigEndian.AppendUint16(b, 1) // type A
		b = binary.BigEndian.AppendUint16(b, 1) // class IN
		b = binary.BigEndian.AppendUint32(b, a.TTL)
		b = binary.BigEndian.AppendUint16(b, 4)
		b = append(b, a.Addr[:]...)
	}
	return b
}

func appendDNSName(b []byte, name string) []byte {
	if name != "" {
		for _, label := range strings.Split(name, ".") {
			b = append(b, byte(len(label)))
			b = append(b, label...)
		}
	}
	return append(b, 0)
}

func readDNSName(data []byte, off int) (string, int, error) {
	var labels []string
	for {
		if off >= len(data) {
			return "", 0, fmt.Errorf("packet: truncated DNS name")
		}
		n := int(data[off])
		if n&0xc0 != 0 {
			return "", 0, fmt.Errorf("packet: compressed DNS names unsupported")
		}
		off++
		if n == 0 {
			return strings.Join(labels, "."), off, nil
		}
		if off+n > len(data) {
			return "", 0, fmt.Errorf("packet: truncated DNS label")
		}
		labels = append(labels, string(data[off:off+n]))
		off += n
	}
}

func decodeDNS(data []byte) (*DNS, error) {
	if len(data) < 12 {
		return nil, fmt.Errorf("packet: DNS message too short (%d bytes)", len(data))
	}
	d := &DNS{ID: binary.BigEndian.Uint16(data[0:2])}
	flags := binary.BigEndian.Uint16(data[2:4])
	d.Response = flags&0x8000 != 0
	d.RCode = uint8(flags & 0x000f)
	qd := int(binary.BigEndian.Uint16(data[4:6]))
	an := int(binary.BigEndian.Uint16(data[6:8]))
	if qd != 1 {
		return nil, fmt.Errorf("packet: DNS message with %d questions unsupported", qd)
	}
	name, off, err := readDNSName(data, 12)
	if err != nil {
		return nil, err
	}
	if off+4 > len(data) {
		return nil, fmt.Errorf("packet: truncated DNS question")
	}
	d.QName = name
	d.QType = binary.BigEndian.Uint16(data[off : off+2])
	off += 4
	for i := 0; i < an; i++ {
		aname, n, err := readDNSName(data, off)
		if err != nil {
			return nil, err
		}
		off = n
		if off+10 > len(data) {
			return nil, fmt.Errorf("packet: truncated DNS answer")
		}
		atype := binary.BigEndian.Uint16(data[off : off+2])
		ttl := binary.BigEndian.Uint32(data[off+4 : off+8])
		rdlen := int(binary.BigEndian.Uint16(data[off+8 : off+10]))
		off += 10
		if off+rdlen > len(data) {
			return nil, fmt.Errorf("packet: truncated DNS rdata")
		}
		if atype == 1 && rdlen == 4 {
			var addr IPv4
			copy(addr[:], data[off:off+4])
			d.Answers = append(d.Answers, DNSAnswer{Name: aname, TTL: ttl, Addr: addr})
		} else {
			return nil, fmt.Errorf("packet: DNS answer type %d unsupported", atype)
		}
		off += rdlen
	}
	return d, nil
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

func (f *FTPControl) encodeTo(b []byte) []byte {
	if f.ReplyCode != 0 {
		return append(b, fmt.Sprintf("%d %s\r\n", f.ReplyCode, f.ReplyText)...)
	}
	if f.Arg != "" {
		return append(b, fmt.Sprintf("%s %s\r\n", f.Command, f.Arg)...)
	}
	return append(b, f.Command+"\r\n"...)
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
		// Not one control line: encodeTo could not reproduce it, so the
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
