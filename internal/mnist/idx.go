// Package mnist provides the digit-classification corpus used by the
// network-level attack experiments: a reader/writer for the standard
// IDX (ubyte) MNIST file format when the real dataset is available, and
// a deterministic synthetic 28×28 digit generator used by default,
// since the dataset cannot be bundled in an offline build.
//
// The attack experiments measure *relative* accuracy degradation versus
// an attack-free baseline on the same data, so any classifiable
// 10-class digit task of the same dimensionality exercises identical
// code paths; DESIGN.md records the substitution.
package mnist

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"
)

// Image is a 28×28 grayscale digit with its class label.
type Image struct {
	Pixels [Side * Side]uint8
	Label  uint8
}

// Side is the image edge length in pixels.
const Side = 28

// IDX magic numbers for the MNIST distribution files.
const (
	magicImages = 0x00000803
	magicLabels = 0x00000801
)

// ReadIDX loads an MNIST image file and its label file in the standard
// IDX format (as distributed at yann.lecun.com, already gunzipped).
// Counts in the headers are not trusted: storage grows only as data
// arrives, and a label outside 0–9 is an error.
func ReadIDX(imagePath, labelPath string) ([]Image, error) {
	imgF, err := os.Open(imagePath)
	if err != nil {
		return nil, err
	}
	defer imgF.Close()
	lblF, err := os.Open(labelPath)
	if err != nil {
		return nil, err
	}
	defer lblF.Close()
	return decodeIDX(bufio.NewReader(imgF), bufio.NewReader(lblF))
}

// decodeIDX decodes an IDX image stream and its label stream.
func decodeIDX(imgR, lblR io.Reader) ([]Image, error) {
	imgs, err := decodeIDXImages(imgR)
	if err != nil {
		return nil, err
	}
	labels, err := decodeIDXLabels(lblR)
	if err != nil {
		return nil, err
	}
	if len(imgs) != len(labels) {
		return nil, fmt.Errorf("mnist: %d images but %d labels", len(imgs), len(labels))
	}
	for i := range imgs {
		imgs[i].Label = labels[i]
	}
	return imgs, nil
}

func decodeIDXImages(r io.Reader) ([]Image, error) {
	var hdr [4]uint32
	if err := binary.Read(r, binary.BigEndian, &hdr); err != nil {
		return nil, fmt.Errorf("mnist: reading image header: %w", err)
	}
	if hdr[0] != magicImages {
		return nil, fmt.Errorf("mnist: image file has magic %#x, want %#x", hdr[0], magicImages)
	}
	if hdr[2] != Side || hdr[3] != Side {
		return nil, fmt.Errorf("mnist: images are %dx%d, want %dx%d", hdr[2], hdr[3], Side, Side)
	}
	var imgs []Image
	for i := uint32(0); i < hdr[1]; i++ {
		var img Image
		if _, err := io.ReadFull(r, img.Pixels[:]); err != nil {
			return nil, fmt.Errorf("mnist: reading image %d of %d: %w", i, hdr[1], err)
		}
		imgs = append(imgs, img)
	}
	return imgs, nil
}

func decodeIDXLabels(r io.Reader) ([]uint8, error) {
	var hdr [2]uint32
	if err := binary.Read(r, binary.BigEndian, &hdr); err != nil {
		return nil, fmt.Errorf("mnist: reading label header: %w", err)
	}
	if hdr[0] != magicLabels {
		return nil, fmt.Errorf("mnist: label file has magic %#x, want %#x", hdr[0], magicLabels)
	}
	labels, err := io.ReadAll(io.LimitReader(r, int64(hdr[1])))
	if err != nil {
		return nil, fmt.Errorf("mnist: reading labels: %w", err)
	}
	if len(labels) != int(hdr[1]) {
		return nil, fmt.Errorf("mnist: label file holds %d of %d labels: %w", len(labels), hdr[1], io.ErrUnexpectedEOF)
	}
	for i, l := range labels {
		if l > 9 {
			return nil, fmt.Errorf("mnist: label %d is %d, want 0–9", i, l)
		}
	}
	return labels, nil
}

// WriteIDX saves images in the IDX pair format, the inverse of ReadIDX.
// Useful for exporting the synthetic corpus for inspection by standard
// MNIST tooling.
func WriteIDX(images []Image, imagePath, labelPath string) error {
	imgF, err := os.Create(imagePath)
	if err != nil {
		return err
	}
	defer imgF.Close()
	w := bufio.NewWriter(imgF)
	for _, v := range []uint32{magicImages, uint32(len(images)), Side, Side} {
		if err := binary.Write(w, binary.BigEndian, v); err != nil {
			return err
		}
	}
	for i := range images {
		if _, err := w.Write(images[i].Pixels[:]); err != nil {
			return err
		}
	}
	if err := w.Flush(); err != nil {
		return err
	}

	lblF, err := os.Create(labelPath)
	if err != nil {
		return err
	}
	defer lblF.Close()
	lw := bufio.NewWriter(lblF)
	for _, v := range []uint32{magicLabels, uint32(len(images))} {
		if err := binary.Write(lw, binary.BigEndian, v); err != nil {
			return err
		}
	}
	for i := range images {
		if err := lw.WriteByte(images[i].Label); err != nil {
			return err
		}
	}
	return lw.Flush()
}

// Load returns n training digits: real MNIST from dir when it contains
// the standard files (train-images-idx3-ubyte / train-labels-idx1-ubyte),
// otherwise the deterministic synthetic corpus with the given seed.
func Load(dir string, n int, seed int64) ([]Image, error) {
	if dir != "" {
		imgPath := dir + "/train-images-idx3-ubyte"
		lblPath := dir + "/train-labels-idx1-ubyte"
		if _, err := os.Stat(imgPath); err == nil {
			imgs, err := ReadIDX(imgPath, lblPath)
			if err != nil {
				return nil, err
			}
			if n > 0 && n < len(imgs) {
				imgs = imgs[:n]
			}
			return imgs, nil
		}
	}
	return Synthetic(n, seed), nil
}
