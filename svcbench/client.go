package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"time"
)

// conn is a minimal keep-alive HTTP/1.1 client over one TCP connection.
// net/http's client adds tens of microseconds of its own bookkeeping and a
// connection pool per request; against snapshot reads that the server
// answers in tens of microseconds that would be a large share of what is
// timed, so the generator writes requests and parses responses itself. Every
// gossipq endpoint the benchmark times answers with a Content-Length body.
type conn struct {
	c   net.Conn
	br  *bufio.Reader
	req []byte
}

func dial(addr string) (*conn, error) {
	c, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	return &conn{c: c, br: bufio.NewReaderSize(c, 16<<10)}, nil
}

func (c *conn) close() { c.c.Close() }

// do sends one request and returns the status code and body. A transport
// error leaves the connection unusable.
func (c *conn) do(method, target string, body []byte) (int, []byte, error) {
	c.req = append(c.req[:0], method...)
	c.req = append(c.req, ' ')
	c.req = append(c.req, target...)
	c.req = append(c.req, " HTTP/1.1\r\nHost: gossipq\r\n"...)
	if body != nil {
		c.req = append(c.req, "Content-Type: application/json\r\nContent-Length: "...)
		c.req = strconv.AppendInt(c.req, int64(len(body)), 10)
		c.req = append(c.req, "\r\n"...)
	}
	c.req = append(c.req, "\r\n"...)
	c.req = append(c.req, body...)
	if _, err := c.c.Write(c.req); err != nil {
		return 0, nil, err
	}
	return c.readResponse()
}

var errNoLength = errors.New("response without Content-Length")

func (c *conn) readResponse() (int, []byte, error) {
	line, err := c.br.ReadSlice('\n')
	if err != nil {
		return 0, nil, err
	}
	// "HTTP/1.1 200 OK\r\n"
	if len(line) < 12 || !bytes.HasPrefix(line, []byte("HTTP/1.")) {
		return 0, nil, fmt.Errorf("bad status line %q", line)
	}
	status, err := strconv.Atoi(string(line[9:12]))
	if err != nil {
		return 0, nil, fmt.Errorf("bad status line %q", line)
	}
	length := -1
	for {
		h, err := c.br.ReadSlice('\n')
		if err != nil {
			return 0, nil, err
		}
		h = bytes.TrimRight(h, "\r\n")
		if len(h) == 0 {
			break
		}
		if k, v, ok := bytes.Cut(h, []byte(":")); ok && bytes.EqualFold(k, []byte("Content-Length")) {
			if length, err = strconv.Atoi(string(bytes.TrimSpace(v))); err != nil {
				return 0, nil, fmt.Errorf("bad Content-Length %q", v)
			}
		}
	}
	if length < 0 {
		return 0, nil, errNoLength
	}
	b := make([]byte, length)
	if _, err := io.ReadFull(c.br, b); err != nil {
		return 0, nil, err
	}
	return status, b, nil
}
